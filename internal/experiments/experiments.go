// Package experiments regenerates every table and figure of the paper's
// evaluation (§7). Each Fig*/Table* function is deterministic given its
// options and returns typed rows; cmd/totoro-bench prints them and
// bench_test.go wraps them as benchmarks. The per-experiment index lives
// in DESIGN.md; paper-vs-measured results are recorded in EXPERIMENTS.md.
package experiments

import (
	"time"

	"totoro"
	"totoro/internal/ids"
	"totoro/internal/transport"
)

// Options scales the experiment suite.
type Options struct {
	Seed int64
	// Short shrinks the workloads for quick runs (used by `go test -short`
	// and CI); the full sizes mirror the paper's configurations.
	Short bool
}

// --- shared mini-harness: a Cluster's engines, driven without training ---

// forest is the view the no-training figures take of a Cluster: its
// engines indexed by address. A figure draws from the cluster's own stream
// (Rand), after the node IDs and the overlay wiring.
type forest struct {
	*totoro.Cluster
	byAddr    map[transport.Addr]*totoro.Engine
	keepAlive time.Duration // > 0: timers never drain, see settle
}

// newForest builds the deployment cfg describes (engines on a 5 ms network,
// overlay wired statically) and indexes its engines by address.
func newForest(cfg totoro.ClusterConfig) *forest {
	c := totoro.NewCluster(cfg)
	f := &forest{
		Cluster:   c,
		byAddr:    make(map[transport.Addr]*totoro.Engine, len(c.Engines)),
		keepAlive: cfg.PubSub.KeepAliveInterval,
	}
	for _, e := range c.Engines {
		f.byAddr[e.Self().Addr] = e
	}
	return f
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

// subscribeDistinct subscribes k distinct random nodes to topic and waits
// for the tree to settle.
func (f *forest) subscribeDistinct(topic ids.ID, k int) {
	for _, i := range f.Rand().Perm(len(f.Engines))[:k] {
		f.Engines[i].SubscribeTopic(topic)
	}
	f.settle()
}

// root returns the engine that roots topic's tree (nil if none does).
func (f *forest) root(topic ids.ID) *totoro.Engine {
	for _, e := range f.Engines {
		if info, ok := e.PubSub().TreeInfo(topic); ok && info.IsRoot {
			return e
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
	frontier := []*totoro.Engine{root}
	for len(frontier) > 0 {
		levels = append(levels, len(frontier))
		var next []*totoro.Engine
		for _, e := range frontier {
			info, _ := e.PubSub().TreeInfo(topic)
			for _, c := range info.Children {
				if child, ok := f.byAddr[c.Addr]; ok {
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
	for _, e := range f.Engines {
		info, ok := e.PubSub().TreeInfo(topic)
		if !ok || !info.Attached {
			continue
		}
		if info.Subscribed {
			e.Aggregate(topic, 1, modelObj{Bytes: bytes})
		} else {
			e.Aggregate(topic, 1, nil)
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
