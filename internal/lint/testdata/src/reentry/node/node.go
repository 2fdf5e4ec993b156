// Package node is the reentry expectation corpus proper: an App whose
// handler chain calls back into ring.Route. Because Route delivers
// synchronously to this very App when the key is local, those calls can
// re-enter Deliver while it is still on the stack — except where the call
// is deferred to the next tick or is the sanctioned layering pattern.
package node

import (
	"reentrycorpus/ring"
	"reentrycorpus/transport"
)

type createMsg struct{}
type ackMsg struct{}
type fanoutMsg struct{}
type rebalanceMsg struct{}
type probeMsg struct{}

// Node subscribes to keys and republishes on fan-out.
type Node struct {
	env  transport.Env
	ring *ring.Ring
	subs map[string]int
}

// Deliver is this package's dispatch entry (ring's upcall target).
func (n *Node) Deliver(d ring.Delivery) {
	switch d.Msg.(type) {
	case createMsg:
		n.subs[d.Key]++
		n.ring.Route(d.Key, ackMsg{}) // want "can synchronously re-enter"
	case fanoutMsg:
		n.republish(d.Key)
	case rebalanceMsg:
		n.rebalance(d.Key)
	case probeMsg:
		n.probe(d.Key)
	}
}

// republish is plain handler code (reachable only through Deliver), so
// its synchronous Route call closes the same cycle.
func (n *Node) republish(key string) {
	if n.subs[key] > 0 {
		n.ring.Route(key, fanoutMsg{}) // want "can synchronously re-enter"
	}
}

// rebalance defers its Route call to the next tick: the sanctioned fix.
func (n *Node) rebalance(key string) {
	n.env.After(1, func() {
		n.ring.Route(key, fanoutMsg{})
	})
}

// probe re-checks ownership through transport.Every: the closure's Route
// call runs on a later tick like rebalance's, while the same call made
// directly closes the cycle.
func (n *Node) probe(key string) {
	transport.Every(n.env, 1, func() bool {
		n.ring.Route(key, fanoutMsg{})
		return false
	})
	n.ring.Route(key, fanoutMsg{}) // want "can synchronously re-enter"
}

// Receive is layered delegation — a dispatch entry forwarding to the
// same-named entry one layer down is the dispatch pipeline itself.
func (n *Node) Receive(from transport.Addr, msg any) {
	n.ring.Receive(from, msg)
}

// Forward intercepts in-flight deliveries (a dispatch entry with no
// outgoing calls).
func (n *Node) Forward(d *ring.Delivery, next transport.Addr) bool {
	return d.Key != ""
}

// Publish is an external API entry point, not reachable from any dispatch
// entry: calling Route from outside the handler chain is how messages are
// SUPPOSED to enter the system.
func (n *Node) Publish(key string) {
	n.ring.Route(key, createMsg{})
}
