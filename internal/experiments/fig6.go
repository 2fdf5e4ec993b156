package experiments

import (
	"fmt"
	"time"

	"totoro"
	"totoro/internal/ids"
	"totoro/internal/obs"
	"totoro/internal/ring"
)

// ScaleRow is one point of Fig 6a/6b: a tree of N members on an edge
// network, with the measured model-dissemination and gradient-aggregation
// times and the tree depth.
type ScaleRow struct {
	Members         int
	Depth           int
	DisseminationMs float64
	AggregationMs   float64
}

// fig6ModelBytes is the serialized model size shipped in the Fig 6
// experiments (a mid-sized edge model).
const fig6ModelBytes = 100 << 10

// Fig6Scale measures Totoro's model dissemination and gradient aggregation
// times for an exponentially increasing number of edge nodes in a single
// training tree (20 → 5120; Fig 6a and 6b): time grows linearly while
// membership grows exponentially because both operations are bounded by
// the O(log N) tree depth.
func Fig6Scale(o Options, b int) []ScaleRow {
	sizes := []int{20, 40, 80, 160, 320, 640, 1280, 2560, 5120}
	if o.Short {
		sizes = []int{20, 80, 320, 1280}
	}
	var out []ScaleRow
	for _, n := range sizes {
		out = append(out, measureTree(o, b, n))
	}
	return out
}

// measureTree builds one tree with n subscribers and times a broadcast and
// an aggregation round over it. Both timings are read from the shared
// telemetry registry — the pubsub layer's own trace events — rather than
// from per-figure handler plumbing.
func measureTree(o Options, b, n int) ScaleRow {
	network := n + n/4 + 50
	topic := ids.Hash("fig6-app", fmt.Sprint(b), fmt.Sprint(n))
	// Latency-dominated regime (no NIC serialization): dissemination and
	// aggregation time are then exactly the tree-depth staircase the paper
	// reports; Fig 7 and Table 3 cover the bandwidth-bound regimes.
	f := newForest(totoro.ClusterConfig{
		N:    network,
		Ring: ring.Config{B: b},
		Seed: o.Seed + int64(n),
	})
	f.subscribeDistinct(topic, n)
	levels := f.treeLevels(topic)

	// Dissemination: root publishes one model; time to the last subscriber,
	// read from the subscribers' pubsub.deliver trace events.
	start := f.Net.Now()
	f.root(topic).Broadcast(topic, modelObj{Bytes: fig6ModelBytes})
	f.Net.RunUntilIdle()
	dissem := f.lastEvent(obs.KindPubSubDeliver, "sub", topic, start) - start

	// Aggregation: every member submits simultaneously; time until the
	// root's pubsub.agg trace event records the combined aggregate landing.
	start = f.Net.Now()
	f.submitAll(topic, fig6ModelBytes)
	agg := f.lastEvent(obs.KindPubSubAgg, "root", topic, start) - start

	return ScaleRow{
		Members:         n,
		Depth:           len(levels) - 1,
		DisseminationMs: float64(dissem) / float64(time.Millisecond),
		AggregationMs:   float64(agg) / float64(time.Millisecond),
	}
}

// FanoutRow is one point of Fig 6c: dissemination time by tree fanout.
type FanoutRow struct {
	Fanout          int
	Depth           int
	DisseminationMs float64
}

// Fig6cFanout measures model dissemination time for tree fanouts 8, 16,
// and 32 (routing bases 3, 4, 5) at a fixed membership: larger fanouts
// give shallower trees and faster dissemination (Fig 6c).
func Fig6cFanout(o Options) []FanoutRow {
	n := 2000
	if o.Short {
		n = 500
	}
	var out []FanoutRow
	for _, b := range []int{3, 4, 5} {
		row := measureTree(o, b, n)
		out = append(out, FanoutRow{
			Fanout:          1 << uint(b),
			Depth:           row.Depth,
			DisseminationMs: row.DisseminationMs,
		})
	}
	return out
}
