// Package transport defines the narrow environment interface that all
// Totoro node logic is written against.
//
// The same protocol handlers (DHT routing, pub/sub trees, FL engines) run
// unchanged on two implementations:
//
//   - internal/simnet: a deterministic discrete-event simulator with a
//     virtual clock, used by the paper-reproduction experiments to model
//     up to hundreds of thousands of edge nodes in one process; and
//   - internal/transport/tcpnet: a real TCP transport with length-prefixed
//     codec-v2 frames (internal/wire/codec), used by cmd/totoro-node for
//     live deployments.
//
// Handlers must be event-driven: they react to Receive and to timers set
// with After, and never block.
package transport

import (
	"math/rand"
	"time"

	"totoro/internal/obs"
)

// Addr identifies a node endpoint. Under the simulator it is an opaque
// name ("n42"); under TCP it is a host:port string.
type Addr string

// None is the zero Addr.
const None Addr = ""

// Env is the environment handed to a protocol node. All node I/O flows
// through it, which is what makes the protocol logic simulation-ready.
type Env interface {
	// Self returns this node's own address.
	Self() Addr
	// Now returns the current time. Under simulation this is virtual time
	// since the start of the run; under TCP it is wall-clock time since
	// process start.
	Now() time.Duration
	// Send transmits msg to the destination. Delivery is asynchronous and,
	// depending on the network model, may be delayed or dropped.
	Send(to Addr, msg any)
	// After schedules fn to run once after d elapses. The returned cancel
	// function stops the timer if it has not fired yet.
	After(d time.Duration, fn func()) (cancel func())
	// Rand returns this node's deterministic random source.
	Rand() *rand.Rand
	// Metrics returns this node's telemetry registry. All layers emit
	// their counters, histograms, and trace events here; trace timestamps
	// come from Now, so telemetry is virtual-time-deterministic under the
	// simulator. Implementations never return nil.
	Metrics() *obs.Registry
}

// Every runs fn every d on env's clock, the first run d from now, until fn
// returns false or stop is called. Each run is one env.After, armed when the
// run before it returns — exactly what a hand-written
// `run = func() { ...; env.After(d, run) }` loop schedules. stop cancels the
// pending run; it may be called more than once, and from inside fn.
func Every(env Env, d time.Duration, fn func() bool) (stop func()) {
	stopped := false
	var cancel func()
	var run func()
	run = func() {
		// A real transport may already have queued the run stop cancelled.
		if !stopped && fn() && !stopped {
			cancel = env.After(d, run)
		}
	}
	cancel = env.After(d, run)
	return func() {
		stopped = true
		cancel()
	}
}

// Per-node traffic counter names every transport maintains in the node's
// registry: messages and bytes in/out, as seen by that transport (accounted
// wire sizes under the simulator, real socket bytes under TCP).
const (
	CtrMsgsIn   = "net.msgs_in"
	CtrMsgsOut  = "net.msgs_out"
	CtrBytesIn  = "net.bytes_in"
	CtrBytesOut = "net.bytes_out"
	// CtrDecodeErrors counts inbound frames whose body failed to decode.
	// Only real transports can observe it (the simulator passes values in
	// memory), but the name lives here with its siblings.
	CtrDecodeErrors = "net.decode_errors"
)

// Handler consumes messages delivered to a node.
type Handler interface {
	Receive(from Addr, msg any)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(from Addr, msg any)

// Receive calls f(from, msg).
func (f HandlerFunc) Receive(from Addr, msg any) { f(from, msg) }

// Recycler is a message drawn from its sender's free list. A transport that
// delivers messages by reference calls Recycle once, after the message's one
// delivery has returned from Receive, and the message goes back to that list
// to carry a later send. A transport that encodes messages never calls it.
// A message delivered more than once (a duplicate) or not at all (dropped,
// partitioned, dead destination) is not recycled: the collector takes it.
type Recycler interface {
	Recycle()
}

// Sized is implemented by messages that know their wire size in bytes.
// The simulator uses it for the per-node traffic accounting behind Fig 7;
// messages that do not implement it are charged DefaultMessageSize.
type Sized interface {
	WireSize() int
}

// DefaultMessageSize is the byte cost charged for control messages that do
// not implement Sized. It approximates a small header-only datagram.
const DefaultMessageSize = 64

// SizeOf returns the accounted wire size of msg.
func SizeOf(msg any) int {
	if s, ok := msg.(Sized); ok {
		return s.WireSize()
	}
	return DefaultMessageSize
}
