package pubsub

import (
	"runtime"
	"testing"

	"totoro/internal/ids"
	"totoro/internal/ring"
)

// BenchmarkTreeRound measures what one round costs a tree member: the root
// multicasts, every member reports as the multicast reaches it (subscribers
// contribute, forwarders report nothing), and the aggregate climbs back to
// the root. 600 subscribers is one tree of the forest-10k benchmark workload,
// here on a fleet a fifth its size; the handlers allocate nothing, so
// allocs/member is pubsub's and simnet's own.
func BenchmarkTreeRound(b *testing.B) {
	const nodes, subscribers = 2000, 600
	f := newForest(b, nodes, ring.Config{B: 4}, Config{}, 17)
	topic := ids.Hash("app-tree-round")
	for _, i := range f.rng.Perm(nodes)[:subscribers] {
		f.stacks[i].ps.Subscribe(topic)
	}
	f.net.RunUntilIdle()
	var root *stack
	var update any = struct{}{}
	aggregated := 0
	for _, s := range f.stacks {
		ps := s.ps
		ps.SetHandlers(Handlers{
			OnDeliver: func(topic ids.ID, obj any, _ int, subscriber bool) {
				if subscriber {
					ps.SubmitUpdate(topic, obj.(int), update)
				} else {
					ps.SubmitUpdate(topic, obj.(int), nil)
				}
			},
			Combine:     func(_ ids.ID, a, _ any) any { return a },
			OnAggregate: func(_ ids.ID, _ int, _ any, count int) { aggregated = count },
		})
		if info, ok := ps.TreeInfo(topic); ok && info.IsRoot {
			root = s
		}
	}
	members := len(f.attachedMembers(topic))
	round := 0
	runRound := func() {
		round++
		aggregated = 0
		root.ps.Publish(topic, round)
		f.net.RunUntilIdle()
		if aggregated != subscribers {
			b.Fatalf("round %d aggregated %d of %d contributions", round, aggregated, subscribers)
		}
	}
	// Warm up: the first deliveries make each member's retransmission cache,
	// and its trace ring stops growing after 256 events.
	for round < 300 {
		runRound()
	}
	heapBefore := heapInUse()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runRound()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	heapAfter := heapInUse()
	runtime.KeepAlive(f)
	perMember := float64(b.N * members)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/perMember, "ns/member")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/perMember, "allocs/member")
	// What the rounds left reachable: round state that is not recycled past
	// a horizon shows up here as bytes per member-round.
	b.ReportMetric((float64(heapAfter)-float64(heapBefore))/perMember, "retained-B/member")
}
