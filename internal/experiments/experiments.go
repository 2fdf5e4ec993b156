// Package experiments regenerates every table and figure of the paper's
// evaluation (§7). Each Fig*/Table* function is deterministic given its
// options and returns typed rows; cmd/totoro-bench prints them and
// bench_test.go wraps them as benchmarks. The per-experiment index lives
// in DESIGN.md; paper-vs-measured results are recorded in EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"totoro/internal/ids"
	"totoro/internal/pubsub"
	"totoro/internal/ring"
	"totoro/internal/simnet"
	"totoro/internal/transport"
)

// Options scales the experiment suite.
type Options struct {
	Seed int64
	// Short shrinks the workloads for quick runs (used by `go test -short`
	// and CI); the full sizes mirror the paper's configurations.
	Short bool
}

// --- shared mini-harness: a raw ring+pub/sub forest (no FL driver) ---

// stack couples one ring node with one pub/sub node.
type stack struct {
	Ring *ring.Node
	PS   *pubsub.Node
}

// Receive implements transport.Handler.
func (s *stack) Receive(from transport.Addr, msg any) {
	if _, ok := msg.(ring.Message); ok {
		s.Ring.Receive(from, msg)
		return
	}
	s.PS.Receive(from, msg)
}

// forest is a population of stacks on a simulated network.
type forest struct {
	Net    *simnet.Network
	Stacks []*stack
	Envs   []transport.Env
	ByAddr map[transport.Addr]*stack
	RNG    *rand.Rand
	// keepAlive > 0 means periodic timers never drain; settle runs a
	// bounded window instead of draining the queue.
	keepAlive time.Duration
}

// settle advances the network until quiescent: with keep-alives enabled it
// runs a bounded window (timers never drain), otherwise it drains the
// event queue.
func (f *forest) settle() {
	if f.keepAlive > 0 {
		f.Net.Run(f.Net.Now() + 4*f.keepAlive)
		return
	}
	f.Net.RunUntilIdle()
}

type forestConfig struct {
	N         int
	Ring      ring.Config
	PubSub    pubsub.Config
	Seed      int64
	Bandwidth int64
	// Name gives node i its address (nil: "n<i>").
	Name func(i int) transport.Addr
	// ZoneBits enables zone-prefixed node IDs; ZoneOf assigns node i its zone
	// (required when ZoneBits > 0).
	ZoneBits int
	ZoneOf   func(i int) uint64
	// Observer sees every delivered message (simnet.Config.Observer).
	Observer func(from, to transport.Addr, size int)
}

// newForest builds cfg.N stacks on a 5 ms network and wires the overlay
// statically; every random draw comes from one rng seeded with cfg.Seed.
func newForest(cfg forestConfig) *forest {
	f := &forest{
		Net: simnet.New(simnet.Config{
			Seed:             cfg.Seed,
			Latency:          simnet.ConstLatency(5 * time.Millisecond),
			DefaultBandwidth: cfg.Bandwidth,
			Observer:         cfg.Observer,
		}),
		ByAddr:    make(map[transport.Addr]*stack),
		RNG:       rand.New(rand.NewSource(cfg.Seed)),
		keepAlive: cfg.PubSub.KeepAliveInterval,
	}
	var ringNodes []*ring.Node
	for i := 0; i < cfg.N; i++ {
		var addr transport.Addr
		if cfg.Name != nil {
			addr = cfg.Name(i)
		} else {
			addr = transport.Addr(fmt.Sprintf("n%d", i))
		}
		id := ids.Random(f.RNG)
		if cfg.ZoneBits > 0 {
			id = ids.MakeZoned(cfg.ZoneOf(i), cfg.ZoneBits, id)
		}
		s := &stack{}
		env := f.Net.AddNode(addr, func(e transport.Env) transport.Handler {
			s.Ring = ring.New(e, ring.Contact{ID: id, Addr: addr}, cfg.Ring)
			s.PS = pubsub.New(e, s.Ring, cfg.PubSub)
			return s
		})
		f.Stacks = append(f.Stacks, s)
		f.Envs = append(f.Envs, env)
		f.ByAddr[addr] = s
		ringNodes = append(ringNodes, s.Ring)
	}
	ring.BuildStatic(ringNodes, f.RNG)
	return f
}

// subscribeDistinct subscribes k distinct random nodes to topic and waits
// for the tree to settle; it returns the chosen indices.
func (f *forest) subscribeDistinct(topic ids.ID, k int) []int {
	perm := f.RNG.Perm(len(f.Stacks))[:k]
	for _, i := range perm {
		f.Stacks[i].PS.Subscribe(topic)
	}
	f.settle()
	return perm
}

// root returns the stack that roots topic's tree (nil if none does).
func (f *forest) root(topic ids.ID) *stack {
	for _, s := range f.Stacks {
		if info, ok := s.PS.TreeInfo(topic); ok && info.IsRoot {
			return s
		}
	}
	return nil
}

// treeLevels walks one tree from its root and returns the node count per
// depth level.
func (f *forest) treeLevels(topic ids.ID) []int {
	root := f.root(topic)
	if root == nil {
		return nil
	}
	levels := []int{}
	frontier := []*stack{root}
	for len(frontier) > 0 {
		levels = append(levels, len(frontier))
		var next []*stack
		for _, s := range frontier {
			info, _ := s.PS.TreeInfo(topic)
			for _, c := range info.Children {
				if child, ok := f.ByAddr[c.Addr]; ok {
					next = append(next, child)
				}
			}
		}
		frontier = next
	}
	return levels
}

// submitAll has every attached member of topic's tree contribute to round 1
// at the same instant — subscribers a payload of the given size, interior
// nodes an empty contribution — and runs the network until idle.
func (f *forest) submitAll(topic ids.ID, bytes int) {
	for _, s := range f.Stacks {
		info, ok := s.PS.TreeInfo(topic)
		if !ok || !info.Attached {
			continue
		}
		if info.Subscribed {
			s.PS.SubmitUpdate(topic, 1, modelObj{Bytes: bytes})
		} else {
			s.PS.SubmitUpdate(topic, 1, nil)
		}
	}
	f.Net.RunUntilIdle()
}

// lastEvent returns the virtual time of the fleet's latest trace event of
// the given kind and note on topic, at or after since (0 if there is none).
func (f *forest) lastEvent(kind, note string, topic ids.ID, since time.Duration) time.Duration {
	key := topic.String()
	var last time.Duration
	for _, e := range f.Net.MergedTrace() {
		if e.Kind == kind && e.Note == note && e.Key == key && e.At >= since && e.At > last {
			last = e.At
		}
	}
	return last
}

// modelObj is a payload with an explicit wire size, standing in for a
// serialized model or gradient.
type modelObj struct{ Bytes int }

// WireSize implements transport.Sized.
func (m modelObj) WireSize() int { return m.Bytes }
