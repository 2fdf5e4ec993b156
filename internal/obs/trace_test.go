package obs

import (
	"testing"
	"time"
)

func TestTraceRingBounded(t *testing.T) {
	r := New(4)
	for i := 0; i < 10; i++ {
		r.Trace(Event{At: time.Duration(i), Kind: "k"})
	}
	ev := r.TraceEvents()
	if len(ev) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(ev))
	}
	// Oldest-first: events 6..9 survive.
	for i, e := range ev {
		if e.At != time.Duration(6+i) {
			t.Fatalf("event %d has At=%v, want %v", i, e.At, time.Duration(6+i))
		}
	}
	// Seq keeps global emission order even after wraparound.
	if ev[0].Seq != 7 || ev[3].Seq != 10 {
		t.Fatalf("seq = %d..%d, want 7..10", ev[0].Seq, ev[3].Seq)
	}
}

func TestMergeTracesOrdering(t *testing.T) {
	a := []Event{{At: 3 * time.Millisecond, Node: "a", Seq: 1}, {At: 5 * time.Millisecond, Node: "a", Seq: 2}}
	b := []Event{{At: 3 * time.Millisecond, Node: "b", Seq: 1}, {At: 1 * time.Millisecond, Node: "b", Seq: 0}}
	m := MergeTraces(a, b)
	if len(m) != 4 {
		t.Fatalf("merged %d events, want 4", len(m))
	}
	want := []string{"b", "a", "b", "a"} // 1ms/b, 3ms/a, 3ms/b, 5ms/a
	for i, e := range m {
		if e.Node != want[i] {
			t.Fatalf("merged order wrong at %d: got %s, want %s (%v)", i, e.Node, want[i], m)
		}
	}
}
