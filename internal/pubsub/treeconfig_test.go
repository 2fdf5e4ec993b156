package pubsub

import (
	"fmt"
	"testing"
	"time"

	"totoro/internal/ids"
	"totoro/internal/ring"
	"totoro/internal/transport"
)

// TestPerTreeFanoutOverride verifies the owner-set fanout cap applies to
// one tree while another tree on the same nodes stays uncapped.
func TestPerTreeFanoutOverride(t *testing.T) {
	f := newForest(t, 300, ring.Config{B: 5}, Config{}, 77)
	capped := ids.Hash("app-capped")
	free := ids.Hash("app-free")

	// The owner creates the capped tree with MaxFanout 3.
	f.stacks[0].ps.CreateWithConfig(capped, TreeConfig{MaxFanout: 3})
	f.stacks[0].ps.Create(free)
	f.net.RunUntilIdle()

	var cappedSubs, freeSubs []*stack
	for i := 0; i < 100; i++ {
		s := f.stacks[f.rng.Intn(len(f.stacks))]
		s.ps.Subscribe(capped)
		cappedSubs = append(cappedSubs, s)
		s2 := f.stacks[f.rng.Intn(len(f.stacks))]
		s2.ps.Subscribe(free)
		freeSubs = append(freeSubs, s2)
		f.net.RunUntilIdle()
	}
	f.verifyTree(t, capped, cappedSubs)
	f.verifyTree(t, free, freeSubs)

	maxFree := 0
	for _, s := range f.stacks {
		if info, ok := s.ps.TreeInfo(capped); ok && len(info.Children) > 3 {
			t.Fatalf("capped tree node %s has %d children", s.ring.Self().Addr, len(info.Children))
		}
		if info, ok := s.ps.TreeInfo(free); ok && len(info.Children) > maxFree {
			maxFree = len(info.Children)
		}
	}
	if maxFree <= 3 {
		t.Skipf("free tree never exceeded 3 children (max %d); cap not distinguishable", maxFree)
	}
}

// TestPerTreeAggTimeoutOverride verifies that only the tree configured
// with an aggregation deadline flushes partial rounds.
func TestPerTreeAggTimeoutOverride(t *testing.T) {
	f := newForest(t, 150, ring.Config{B: 4}, Config{}, 78)
	deadline := ids.Hash("app-deadline")
	strict := ids.Hash("app-strict")
	f.stacks[0].ps.CreateWithConfig(deadline, TreeConfig{AggTimeout: 80 * time.Millisecond})
	f.stacks[0].ps.Create(strict)
	f.net.RunUntilIdle()

	for _, topic := range []ids.ID{deadline, strict} {
		for i := 0; i < 30; i++ {
			f.stacks[f.rng.Intn(len(f.stacks))].ps.Subscribe(topic)
		}
	}
	f.net.RunUntilIdle()

	// Submit from everyone except one straggler leaf per tree.
	submitAllButOneLeaf := func(topic ids.ID, round int) {
		skipped := false
		for _, s := range f.attachedMembers(topic) {
			info, _ := s.ps.TreeInfo(topic)
			if !skipped && !info.IsRoot && len(info.Children) == 0 && info.Subscribed {
				skipped = true
				continue
			}
			if info.Subscribed {
				s.ps.SubmitUpdate(topic, round, 1)
			} else {
				s.ps.SubmitUpdate(topic, round, nil)
			}
		}
	}
	submitAllButOneLeaf(deadline, 1)
	submitAllButOneLeaf(strict, 1)
	f.net.Run(f.net.Now() + 2*time.Second)

	if len(f.aggregates[fmt.Sprintf("%s/%d", deadline, 1)]) == 0 {
		t.Fatal("deadline tree never flushed its partial round")
	}
	if len(f.aggregates[fmt.Sprintf("%s/%d", strict, 1)]) != 0 {
		t.Fatal("strict tree flushed despite a missing member")
	}
}

// TestMaxFanoutRespected grows a capped tree one subscriber at a time: no
// node ever holds more children than the owner's cap, and a broadcast still
// reaches every subscriber through the pushed-down joins.
func TestMaxFanoutRespected(t *testing.T) {
	f := newForest(t, 400, ring.Config{B: 5}, Config{}, 6)
	topic := ids.Hash("app-fanout")
	f.stacks[0].ps.CreateWithConfig(topic, TreeConfig{MaxFanout: 4})
	f.net.RunUntilIdle()
	var subs []*stack
	seen := map[transport.Addr]bool{}
	for len(subs) < 150 {
		s := f.stacks[f.rng.Intn(len(f.stacks))]
		if seen[s.ring.Self().Addr] {
			continue
		}
		seen[s.ring.Self().Addr] = true
		s.ps.Subscribe(topic)
		subs = append(subs, s)
		f.net.RunUntilIdle()
	}
	f.verifyTree(t, topic, subs)
	for _, s := range f.stacks {
		if info, ok := s.ps.TreeInfo(topic); ok && len(info.Children) > 4 {
			t.Fatalf("node %s has %d children (cap 4)", s.ring.Self().Addr, len(info.Children))
		}
	}
	// Broadcast still reaches everyone.
	root := f.verifyTree(t, topic, subs)
	root.ps.Publish(topic, "m")
	f.net.RunUntilIdle()
	for _, s := range subs {
		if len(f.delivered[s.ring.Self().Addr]) != 1 {
			t.Fatalf("subscriber %s missed broadcast under fanout cap", s.ring.Self().Addr)
		}
	}
}
