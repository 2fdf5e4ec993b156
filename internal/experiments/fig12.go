package experiments

import (
	"fmt"
	"time"

	"totoro"
	"totoro/internal/ids"
	"totoro/internal/pubsub"
	"totoro/internal/ring"
	"totoro/internal/transport"
)

// RecoveryRow is one point of Fig 12: with 5% of every tree's nodes
// failing simultaneously, the time until every surviving member is
// re-attached.
type RecoveryRow struct {
	Trees       int
	FailedNodes int
	RecoveryMs  float64
	// RepairJoins counts the re-join attempts the pub/sub layer made during
	// the repair window, summed from the nodes' telemetry registries.
	RepairJoins int
}

// Fig12Recovery fails 5% of the membership of an exponentially increasing
// number of dataflow trees at the same instant and measures how long the
// keep-alive-driven parallel repair takes (§4.5): recovery time stays
// stable because every orphan re-joins through its own overlay route, with
// no central coordinator in the loop.
func Fig12Recovery(o Options) []RecoveryRow {
	treeCounts := []int{2, 4, 8, 16, 32}
	if o.Short {
		treeCounts = []int{2, 8}
	}
	var out []RecoveryRow
	for _, trees := range treeCounts {
		out = append(out, recoveryRun(o, trees))
	}
	return out
}

func recoveryRun(o Options, trees int) RecoveryRow {
	const (
		nodes       = 400
		subsPerTree = 60
		kaInterval  = 50 * time.Millisecond
		kaTimeout   = 150 * time.Millisecond
	)
	f := newForest(totoro.ClusterConfig{
		N:    nodes,
		Ring: ring.Config{B: 4, ReliableHops: true, HopAckTimeout: 100 * time.Millisecond},
		PubSub: pubsub.Config{
			KeepAliveInterval: kaInterval,
			KeepAliveTimeout:  kaTimeout,
		},
		Seed: o.Seed + int64(trees),
	})
	topics := make([]ids.ID, trees)
	for t := range topics {
		topics[t] = ids.Hash("fig12-app", fmt.Sprint(trees), fmt.Sprint(t))
		f.subscribeDistinct(topics[t], subsPerTree)
	}
	// Let keep-alives reach steady state.
	f.Net.Run(f.Net.Now() + 500*time.Millisecond)

	// Fail 5% of each tree's members (union across trees), sparing roots so
	// that each tree keeps a rendezvous to repair toward.
	failed := map[transport.Addr]bool{}
	for _, topic := range topics {
		var members []*totoro.Engine
		for _, e := range f.Engines {
			if info, ok := e.PubSub().TreeInfo(topic); ok && info.Attached && !info.IsRoot {
				members = append(members, e)
			}
		}
		f.Rand().Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
		for i := 0; i < len(members)/20; i++ {
			failed[members[i].Self().Addr] = true
		}
	}
	for addr := range failed {
		f.Net.Fail(addr)
	}
	failAt := f.Net.Now()
	repairsBefore := f.Net.MergedSnapshot().Counters["pubsub.repairs"]

	// Advance in small steps until every live member of every tree has a
	// fully live parent chain to its root.
	deadline := failAt + 30*time.Second
	for f.Net.Now() < deadline {
		f.Net.Run(f.Net.Now() + 20*time.Millisecond)
		if f.allRepaired(topics, failed) {
			break
		}
	}
	return RecoveryRow{
		Trees:       trees,
		FailedNodes: len(failed),
		RecoveryMs:  float64(f.Net.Now()-failAt) / float64(time.Millisecond),
		RepairJoins: int(f.Net.MergedSnapshot().Counters["pubsub.repairs"] - repairsBefore),
	}
}

// allRepaired reports whether every live subscriber of every topic has an
// unbroken live parent chain to a root.
func (f *forest) allRepaired(topics []ids.ID, failed map[transport.Addr]bool) bool {
	for _, topic := range topics {
		for _, e := range f.Engines {
			if failed[e.Self().Addr] {
				continue
			}
			info, ok := e.PubSub().TreeInfo(topic)
			if !ok || !info.Subscribed {
				continue
			}
			cur := e
			for hops := 0; ; hops++ {
				ci, ok := cur.PubSub().TreeInfo(topic)
				if !ok || !ci.Attached {
					return false
				}
				if ci.IsRoot {
					break
				}
				if failed[ci.Parent.Addr] {
					return false
				}
				next, ok := f.byAddr[ci.Parent.Addr]
				if !ok || hops > len(f.Engines) {
					return false
				}
				cur = next
			}
		}
	}
	return true
}
