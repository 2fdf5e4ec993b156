package pubsub

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"totoro/internal/ids"
	"totoro/internal/ring"
)

// deepTree creates the topic's tree with a fanout cap of 3 and subscribes 40
// of 150 nodes, which forces it at least three levels deep, and returns the
// topic's members.
func deepTree(t *testing.T, f *forest, topic ids.ID) []*stack {
	t.Helper()
	f.stacks[0].ps.CreateWithConfig(topic, TreeConfig{MaxFanout: 3})
	f.net.RunUntilIdle()
	var subs []*stack
	for i := 0; i < 40; i++ {
		s := f.stacks[f.rng.Intn(len(f.stacks))]
		s.ps.Subscribe(topic)
		subs = append(subs, s)
	}
	f.net.RunUntilIdle()
	root := f.verifyTree(t, topic, subs)
	members := f.attachedMembers(topic)
	for _, s := range members {
		info, _ := s.ps.TreeInfo(topic)
		if len(info.Children) > 0 && !info.IsRoot && info.Parent.Addr != root.ring.Self().Addr {
			return members // an interior node below the root's children: ≥ 3 levels
		}
	}
	t.Fatal("tree has fewer than three levels")
	return nil
}

func heapInUse() uint64 {
	runtime.GC()
	runtime.GC() // a second cycle frees what the first one's finalizers and pools released
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestFlushedRoundsReleaseTheirPayload pins what a round leaves behind: a
// tombstone, not the update. Before flush released r.combined, every leaf
// kept each round's 256 KB object reachable through topicState.rounds for
// the life of the node.
func TestFlushedRoundsReleaseTheirPayload(t *testing.T) {
	const floats, rounds, warmup = 32 << 10, 30, 3
	f := newForest(t, 150, ring.Config{B: 4}, Config{}, 11)
	topic := ids.Hash("app-retention")
	aggregated := 0
	for _, s := range f.stacks {
		s.ps.SetHandlers(Handlers{
			// The FL combiner's contract: merge into the left operand.
			Combine: func(_ ids.ID, a, b any) any {
				aa, bb := a.([]float64), b.([]float64)
				for i := range aa {
					aa[i] += bb[i]
				}
				return aa
			},
			OnAggregate: func(_ ids.ID, _ int, obj any, count int) {
				if obj != nil {
					aggregated += count
				}
			},
		})
	}
	members := deepTree(t, f, topic)
	contributors := 0
	runRound := func(round int) {
		contributors = 0
		for _, s := range members {
			if info, _ := s.ps.TreeInfo(topic); info.Subscribed {
				s.ps.SubmitUpdate(topic, round, make([]float64, floats))
				contributors++
			} else {
				s.ps.SubmitUpdate(topic, round, nil)
			}
		}
		f.net.RunUntilIdle()
	}
	for r := 1; r <= warmup; r++ {
		runRound(r)
	}
	before := heapInUse()
	for r := warmup + 1; r <= warmup+rounds; r++ {
		runRound(r)
	}
	after := heapInUse()
	runtime.KeepAlive(f) // or the second reading finds the whole forest dead
	if want := (warmup + rounds) * contributors; aggregated != want {
		t.Fatalf("root aggregated %d contributions, want %d", aggregated, want)
	}
	perRoundMember := (float64(after) - float64(before)) / float64(rounds*len(members))
	t.Logf("%d members: heap in use grew %.0f B per round per member", len(members), perRoundMember)
	if perRoundMember >= 1024 {
		t.Fatalf("heap in use grew %.0f B per round per member over %d rounds; a flushed round must leave a tombstone (< 1 KB), not its %d KB update",
			perRoundMember, rounds, floats*8>>10)
	}
}

// TestRoundStateStopsGrowing is the soak: once a tree's members have warmed
// up, a round leaves nothing behind. Each member holds a window of rounds and
// reuses a slot past the horizon, so heap in use stays flat however many
// rounds go by; with one tombstone kept per round it grew about 160 B per
// member-round.
func TestRoundStateStopsGrowing(t *testing.T) {
	const warmup, rounds = 300, 10000 // the trace ring stops growing after 256 events
	f := newForest(t, 150, ring.Config{B: 4}, Config{}, 11)
	topic := ids.Hash("app-soak")
	aggregated := 0
	for _, s := range f.stacks {
		s.ps.SetHandlers(Handlers{
			Combine:     func(_ ids.ID, a, _ any) any { return a },
			OnAggregate: func(_ ids.ID, _ int, _ any, count int) { aggregated += count },
		})
	}
	members := deepTree(t, f, topic)
	var update any = struct{}{}
	subscribed, contributors := make([]bool, len(members)), 0
	for i, s := range members {
		info, _ := s.ps.TreeInfo(topic)
		if subscribed[i] = info.Subscribed; info.Subscribed {
			contributors++
		}
	}
	runRound := func(round int) {
		for i, s := range members {
			if subscribed[i] {
				s.ps.SubmitUpdate(topic, round, update)
			} else {
				s.ps.SubmitUpdate(topic, round, nil)
			}
		}
		f.net.RunUntilIdle()
	}
	for r := 1; r <= warmup; r++ {
		runRound(r)
	}
	aggregated = 0
	before := heapInUse()
	for r := warmup + 1; r <= warmup+rounds; r++ {
		runRound(r)
	}
	after := heapInUse()
	runtime.KeepAlive(f)
	if want := rounds * contributors; aggregated != want {
		t.Fatalf("root aggregated %d contributions, want %d", aggregated, want)
	}
	perMemberRound := (float64(after) - float64(before)) / float64(rounds*len(members))
	t.Logf("%d members, %d rounds: heap in use grew %.2f B per member-round", len(members), rounds, perMemberRound)
	if perMemberRound >= 1 {
		t.Fatalf("heap in use grew %.2f B per member-round over %d rounds, want < 1: round state must stop growing past the horizon",
			perMemberRound, rounds)
	}
}

// TestLatePartialPastTheWindowIsDropped: at an interior member, a round
// roundHorizon+1 behind the newest has left the window. A child's partial or
// the member's own update for it sends nothing and merges nothing; it is
// counted. One round later is still inside the window, and a partial for it
// is forwarded as a straggler.
func TestLatePartialPastTheWindowIsDropped(t *testing.T) {
	n, env := newSolo(Config{}, true)
	topic := ids.Hash("app-window")
	merges := 0
	n.SetHandlers(Handlers{Combine: func(_ ids.ID, a, _ any) any { merges++; return a }})
	parent := contact(0)
	n.Receive(parent.Addr, Welcome{Topic: topic, Parent: parent})
	kids := []ring.Contact{contact(1), contact(2)}
	for _, c := range kids {
		n.Receive(c.Addr, JoinMsg{Topic: topic, Subscriber: c})
	}
	env.take() // the children's Welcomes
	seq := uint64(0)
	upstream := func(from ring.Contact, round int) {
		seq++
		n.Receive(from.Addr, Upstream{Topic: topic, Round: round, From: from, Object: 1, Count: 1, Seq: seq})
	}
	const newest = 1 + roundHorizon + 1
	for round := 1; round <= newest; round++ {
		n.SubmitUpdate(topic, round, 1)
		for _, c := range kids {
			upstream(c, round)
		}
	}
	if sent := len(env.take()); sent != newest {
		t.Fatalf("%d complete rounds sent %d messages, want one Upstream each", newest, sent)
	}
	pruned := n.env.Metrics().Counter("pubsub.pruned_partials")
	merged := merges
	expect := func(what string, wantSent int, wantPruned int64) []soloSend {
		t.Helper()
		sent := env.take()
		if len(sent) != wantSent || merges != merged || pruned.Value() != wantPruned {
			t.Fatalf("%s with round %d open: sent %d, merged %d, pruned_partials %d; want %d, 0 and %d",
				what, newest, len(sent), merges-merged, pruned.Value(), wantSent, wantPruned)
		}
		return sent
	}

	upstream(kids[0], 1)
	expect("a child's partial for round 1", 0, 1)
	n.SubmitUpdate(topic, 1, 1)
	expect("an own update for round 1", 0, 2)

	upstream(kids[0], 2)
	sent := expect("a child's partial for round 2", 1, 2)
	if up, ok := sent[0].msg.(*Upstream); !ok || up.Round != 2 || sent[0].to != parent.Addr {
		t.Fatalf("the straggler left as %#v to %s, want round 2's Upstream to the parent", sent[0].msg, sent[0].to)
	}
}

// TestTombstoneStillRoutesStragglers extends the in-place-combiner
// regression test above to the released round: whatever reaches a flushed
// round after its aggregate is gone is still forwarded exactly once, and a
// network duplicate of it is still dropped — except a late own nil, which
// sends nothing.
func TestTombstoneStillRoutesStragglers(t *testing.T) {
	type acc struct{ sum, count int }
	f := newForest(t, 150, ring.Config{B: 4}, Config{AggTimeout: 100 * time.Millisecond}, 11)
	topic := ids.Hash("app-tombstone")
	var results []*acc
	for _, s := range f.stacks {
		s.ps.SetHandlers(Handlers{
			Combine: func(_ ids.ID, a, b any) any {
				aa, bb := a.(*acc), b.(*acc)
				aa.sum += bb.sum
				aa.count += bb.count
				return aa
			},
			OnAggregate: func(_ ids.ID, _ int, obj any, _ int) {
				if obj != nil {
					results = append(results, obj.(*acc))
				}
			},
		})
	}
	members := deepTree(t, f, topic)
	// mid is an interior node below the root; kid is a leaf child of it. Both
	// stay silent until every round has flushed on its deadline.
	var mid, kid *stack
	for _, s := range members {
		info, _ := s.ps.TreeInfo(topic)
		if info.IsRoot || len(info.Children) > 0 {
			continue
		}
		if p := f.byAddr[info.Parent.Addr]; p != nil {
			if pi, _ := p.ps.TreeInfo(topic); !pi.IsRoot {
				mid, kid = p, s
				break
			}
		}
	}
	if mid == nil {
		t.Fatal("no leaf under a non-root interior node")
	}
	const round = 3
	contributors := 0
	for _, s := range members {
		if s == mid || s == kid {
			continue
		}
		if info, _ := s.ps.TreeInfo(topic); info.Subscribed {
			s.ps.SubmitUpdate(topic, round, &acc{sum: 1, count: 1})
			contributors++
		} else {
			s.ps.SubmitUpdate(topic, round, nil)
		}
	}
	f.net.Run(5 * time.Second)

	st := mid.ps.topics[topic]
	i, ok := st.findRound(round)
	if !ok || !st.rounds[i].flushed {
		t.Fatal("mid's round did not flush on its deadline")
	}
	r := st.rounds[i]
	if r.combined != nil || r.kids != nil || r.reported != nil || r.cancel != nil {
		t.Fatalf("flushed round still holds combined=%v kids=%v reported=%v cancel set=%v", r.combined, r.kids, r.reported, r.cancel != nil)
	}
	ups := mid.ps.env.Metrics().Counter("pubsub.upstreams_sent")
	dupes := mid.ps.env.Metrics().Counter("pubsub.upstream_dupes")
	expect := func(what string, wantUps, wantDupes int64) {
		t.Helper()
		f.net.Run(time.Second)
		if ups.Value() != wantUps || dupes.Value() != wantDupes {
			t.Fatalf("after %s: upstreams_sent=%d dupes=%d, want %d and %d", what, ups.Value(), dupes.Value(), wantUps, wantDupes)
		}
	}
	ups0, dupes0 := ups.Value(), dupes.Value()

	kid.ps.SubmitUpdate(topic, round, &acc{sum: 100, count: 1})
	expect("a late child partial", ups0+1, dupes0)

	kst := kid.ps.topics[topic]
	mid.ps.Receive(kid.ring.Self().Addr, Upstream{
		Topic: topic, Round: round, From: kid.ring.Self(), Epoch: kst.mcEpoch,
		Object: &acc{sum: 100, count: 1}, Count: 1, Seq: kst.upSeq,
	})
	expect("a duplicate of it", ups0+1, dupes0+1)

	mid.ps.SubmitUpdate(topic, round, &acc{sum: 1000, count: 1})
	expect("a late own update", ups0+2, dupes0+1)

	// The one asymmetry of a flushed round: a late own report of nothing has
	// nothing to forward, but a child's late empty partial still goes up once.
	mid.ps.SubmitUpdate(topic, round, nil)
	expect("a late own nil", ups0+2, dupes0+1)
	empty := Upstream{Topic: topic, Round: round, From: kid.ring.Self(), Epoch: kst.mcEpoch, Seq: kst.upSeq + 1}
	mid.ps.Receive(kid.ring.Self().Addr, empty)
	expect("a child's late nil partial", ups0+3, dupes0+1)
	mid.ps.Receive(kid.ring.Self().Addr, empty)
	expect("a duplicate of it", ups0+3, dupes0+2)

	totalSum, totalCount := 0, 0
	for _, res := range results {
		totalSum += res.sum
		totalCount += res.count
	}
	if want := contributors + 1100; totalSum != want {
		t.Fatalf("aggregate sum = %d want %d (a straggler was dropped or double-counted)", totalSum, want)
	}
	if want := contributors + 2; totalCount != want {
		t.Fatalf("aggregate count = %d want %d", totalCount, want)
	}
}

// TestClaimStartsFlushedRoundsAfresh: a member that flushed a round as an
// interior node and then claims the root must aggregate that round again when
// it is re-announced. Were the flushed slot kept, the claim's new
// contributions would each reach OnAggregate alone, as stragglers.
func TestClaimStartsFlushedRoundsAfresh(t *testing.T) {
	n, env := newSolo(Config{}, true)
	topic := ids.Hash("app-claim")
	type agg struct{ round, obj, count int }
	var aggs []agg
	n.SetHandlers(Handlers{
		Combine:     func(_ ids.ID, a, b any) any { return a.(int) + b.(int) },
		OnAggregate: func(_ ids.ID, round int, obj any, count int) { aggs = append(aggs, agg{round, obj.(int), count}) },
	})
	parent, kid := contact(0), contact(1)
	n.Receive(parent.Addr, Welcome{Topic: topic, Parent: parent})
	n.Receive(kid.Addr, JoinMsg{Topic: topic, Subscriber: kid})
	env.take() // the child's Welcome
	const round = 4
	n.SubmitUpdate(topic, round, 1)
	n.Receive(kid.Addr, Upstream{Topic: topic, Round: round, From: kid, Object: 2, Count: 1, Seq: 1})
	sent := env.take()
	if len(sent) != 1 || sent[0].to != parent.Addr {
		t.Fatalf("the interior round sent %v, want one Upstream to the parent", sent)
	}
	if up, ok := sent[0].msg.(*Upstream); !ok || up.Round != round || up.Count != 2 {
		t.Fatalf("the interior round flushed %#v, want round %d with 2 contributions", sent[0].msg, round)
	}

	n.CreateWithConfig(topic, TreeConfig{})
	if info, _ := n.TreeInfo(topic); !info.IsRoot {
		t.Fatal("the claim did not make the member root")
	}
	n.SubmitUpdate(topic, round, 10)
	if len(aggs) != 0 {
		t.Fatalf("the re-announced round's own update reached OnAggregate as %v before the child reported", aggs)
	}
	n.Receive(kid.Addr, Upstream{Topic: topic, Round: round, From: kid, Object: 20, Count: 1, Seq: 2})
	if want := []agg{{round, 30, 2}}; !slices.Equal(aggs, want) {
		t.Fatalf("OnAggregate got %v, want %v", aggs, want)
	}
}
