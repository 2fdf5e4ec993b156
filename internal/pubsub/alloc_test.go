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
// chunks (the round, the rounds map, the trace ring), under two allocations
// a round.
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
	if got := testing.AllocsPerRun(runs, step); got > 2 {
		t.Fatalf("a leaf's round allocates %.0f times, want at most 2", got)
	}
	if ups := n.ctrUpstreams.Value(); ups != int64(next) {
		t.Fatalf("%d rounds sent %d upstreams", next, ups)
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
