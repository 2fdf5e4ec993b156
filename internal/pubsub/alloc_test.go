package pubsub

import (
	"fmt"
	"testing"

	"totoro/internal/ids"
)

// The allocation pins: what a tree member may allocate per message once its
// topic is warm. Each run feeds the member the next multicast of a stream
// boxed beforehand, so the count is the member's own.

// multicasts boxes n in-order multicasts of topic, as a parent would send
// them to a child one level down.
func multicasts(topic ids.ID, n int) []any {
	out := make([]any, n)
	for i := range out {
		out[i] = Multicast{Topic: topic, Seq: uint64(i + 1), Depth: 1, Object: i + 1}
	}
	return out
}

func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
}

// TestLeafRoundAllocations: a leaf's whole round — the multicast arrives, the
// application is told, it reports nothing to contribute, the round flushes
// and the Upstream leaves — costs the boxed Upstream plus what grows in
// chunks (the topic's round storage and index, the trace ring): one
// allocation a round.
func TestLeafRoundAllocations(t *testing.T) {
	skipUnderRace(t)
	const warm, runs = 300, 1000 // the trace ring stops growing after 256 events
	n, _ := newSolo(Config{}, false)
	topic := ids.Hash("app-leaf-round")
	parent := contact(1)
	n.SetHandlers(Handlers{OnDeliver: func(topic ids.ID, obj any, _ int, _ bool) {
		n.SubmitUpdate(topic, obj.(int), nil)
	}})
	n.Receive(parent.Addr, Welcome{Topic: topic, Parent: parent})
	n.Subscribe(topic)
	msgs := multicasts(topic, warm+runs+1)
	next := 0
	step := func() {
		n.Receive(parent.Addr, msgs[next])
		next++
	}
	for next < warm {
		step()
	}
	if got := testing.AllocsPerRun(runs, step); got > 1 {
		t.Fatalf("a leaf's round allocates %.0f times, want at most 1", got)
	}
	if ups := n.ctrUpstreams.Value(); ups != int64(next) {
		t.Fatalf("%d rounds sent %d upstreams", next, ups)
	}
}

// TestInteriorRoundAllocations: an interior member's whole aggregation
// round — its own empty report, then one Upstream from each child, merged,
// and the flush that sends the round's Upstream on — allocates that boxed
// Upstream and nothing else but the topic's round storage, which grows in
// chunks: the children awaited are a reference to the children's array
// plus a bitset, and the dedup pairs are carved from the topic's.
func TestInteriorRoundAllocations(t *testing.T) {
	skipUnderRace(t)
	const warm, runs = 300, 200
	for _, k := range []int{1, 16, 64} {
		n, _ := newSolo(Config{}, false)
		n.SetHandlers(Handlers{Combine: func(_ ids.ID, a, _ any) any { return a }})
		topic := ids.Hash(fmt.Sprint("app-interior-", k))
		parent := contact(0)
		n.Receive(parent.Addr, Welcome{Topic: topic, Parent: parent})
		for i := 1; i <= k; i++ {
			n.Receive(contact(i).Addr, JoinMsg{Topic: topic, Subscriber: contact(i)})
		}
		// The children's Upstreams, boxed beforehand: they are the children's
		// allocations, not this member's.
		ups := make([][]any, warm+runs+1)
		for r := range ups {
			ups[r] = make([]any, k)
			for i := range ups[r] {
				ups[r][i] = Upstream{Topic: topic, Round: r, From: contact(i + 1), Object: &ups, Count: 1, Seq: uint64(r + 1)}
			}
		}
		round := 0
		step := func() {
			n.SubmitUpdate(topic, round, nil)
			for _, up := range ups[round] {
				n.Receive(up.(Upstream).From.Addr, up)
			}
			round++
		}
		for round < warm {
			step()
		}
		if got := testing.AllocsPerRun(runs, step); got != 1 {
			t.Errorf("an interior round with %d children allocates %.0f times, want 1", k, got)
		}
		if sent := n.ctrUpstreams.Value(); sent != int64(round) {
			t.Errorf("%d rounds with %d children sent %d upstreams", round, k, sent)
		}
	}
}

// TestInteriorForwardAllocations: forwarding a multicast allocates the one
// boxed message every child is sent, however many children there are.
func TestInteriorForwardAllocations(t *testing.T) {
	skipUnderRace(t)
	const warm, runs = 300, 200
	for _, k := range []int{1, 16, 64} {
		n, _ := newSolo(Config{}, false)
		topic := ids.Hash(fmt.Sprint("app-forward-", k))
		parent := contact(0)
		n.Receive(parent.Addr, Welcome{Topic: topic, Parent: parent})
		for i := 1; i <= k; i++ {
			n.Receive(contact(i).Addr, JoinMsg{Topic: topic, Subscriber: contact(i)})
		}
		msgs := multicasts(topic, warm+runs+1)
		next := 0
		step := func() {
			n.Receive(parent.Addr, msgs[next])
			next++
		}
		for next < warm {
			step()
		}
		if got := testing.AllocsPerRun(runs, step); got != 1 {
			t.Errorf("forwarding to %d children allocates %.0f times, want 1", k, got)
		}
		if sent := n.ctrMulticasts.Value(); sent != int64(next*k) {
			t.Errorf("%d multicasts reached %d children as %d sends", next, k, sent)
		}
	}
}

// TestRecordMulticastAllocations: after the first delivery has made the
// retransmission cache, registering a delivery allocates nothing.
func TestRecordMulticastAllocations(t *testing.T) {
	skipUnderRace(t)
	n, _ := newSolo(Config{}, false)
	topic := ids.Hash("app-record")
	parent := contact(1)
	n.Receive(parent.Addr, Welcome{Topic: topic, Parent: parent})
	st := n.state(topic)
	seq := uint64(0)
	step := func() {
		seq++
		if !n.recordMulticast(st, Multicast{Topic: topic, Seq: seq, Depth: 1}) {
			t.Fatalf("sequence %d reported a duplicate", seq)
		}
	}
	step()
	if got := testing.AllocsPerRun(1000, step); got != 0 {
		t.Fatalf("recordMulticast allocates %.0f times a delivery, want 0", got)
	}
}
