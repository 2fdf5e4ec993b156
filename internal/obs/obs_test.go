package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := New(0)
	c := r.Counter("ring.delivered")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("ring.delivered") != c {
		t.Fatalf("same name must return the same counter")
	}

	g := r.Gauge("fl.accuracy")
	g.Set(0.75)
	if got := g.Value(); got != 0.75 {
		t.Fatalf("gauge = %v, want 0.75", got)
	}

	h := r.Histogram("ring.route_hops", HopBuckets)
	for _, v := range []float64{0, 1, 2, 2, 5, 100} {
		h.Observe(v)
	}
	s := r.Snapshot().Histograms["ring.route_hops"]
	if s.Count != 6 || s.Sum != 110 {
		t.Fatalf("hist count=%d sum=%v, want 6/110", s.Count, s.Sum)
	}
	// 0 -> bucket le0; 1 -> le1; 2,2 -> le2; 5 -> le6; 100 -> +inf.
	if s.Counts[0] != 1 || s.Counts[1] != 1 || s.Counts[2] != 2 || s.Counts[5] != 1 || s.Counts[len(s.Counts)-1] != 1 {
		t.Fatalf("unexpected bucket counts: %v", s.Counts)
	}
}

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Counter("x").Add(3)
	r.Gauge("y").Set(1)
	r.Histogram("z", HopBuckets).Observe(2)
	r.Trace(Event{Kind: KindRingHop})
	r.ResetCounters("x")
	if got := r.Counter("x").Value(); got != 0 {
		t.Fatalf("nil counter = %d, want 0", got)
	}
	if got := r.Gauge("y").Value(); got != 0 {
		t.Fatalf("nil gauge = %v, want 0", got)
	}
	if ev := r.TraceEvents(); ev != nil {
		t.Fatalf("nil trace events = %v, want nil", ev)
	}
	if s := r.Snapshot(); len(s.Counters) != 0 {
		t.Fatalf("nil snapshot counters = %v, want empty", s.Counters)
	}
}

func TestResetCounters(t *testing.T) {
	r := New(0)
	r.Counter("a").Add(7)
	r.Counter("b").Add(9)
	r.ResetCounters("a", "missing")
	if got := r.Counter("a").Value(); got != 0 {
		t.Fatalf("a = %d after reset, want 0", got)
	}
	if got := r.Counter("b").Value(); got != 9 {
		t.Fatalf("b = %d, want 9 (untouched)", got)
	}
}

func TestSnapshotMergeAndString(t *testing.T) {
	a := New(0)
	a.Counter("ring.delivered").Add(2)
	a.Gauge("fl.accuracy").Set(0.5)
	a.Histogram("hops", HopBuckets).Observe(3)

	b := New(0)
	b.Counter("ring.delivered").Add(3)
	b.Counter("ring.forwarded").Add(1)
	b.Gauge("fl.accuracy").Set(0.25)
	b.Histogram("hops", HopBuckets).Observe(5)

	m := MergeSnapshots(a.Snapshot(), b.Snapshot())
	if m.Counters["ring.delivered"] != 5 || m.Counters["ring.forwarded"] != 1 {
		t.Fatalf("merged counters wrong: %v", m.Counters)
	}
	if m.Gauges["fl.accuracy"] != 0.75 {
		t.Fatalf("merged gauge = %v, want 0.75", m.Gauges["fl.accuracy"])
	}
	h := m.Histograms["hops"]
	if h.Count != 2 || h.Sum != 8 {
		t.Fatalf("merged hist count=%d sum=%v, want 2/8", h.Count, h.Sum)
	}

	text := m.String()
	wantLines := []string{
		"counter ring.delivered 5",
		"counter ring.forwarded 1",
		"gauge fl.accuracy 0.75",
		"hist hops count=2 sum=8",
	}
	for _, w := range wantLines {
		if !strings.Contains(text, w) {
			t.Fatalf("snapshot text missing %q:\n%s", w, text)
		}
	}
	// Deterministic ordering: counters sorted before gauges before hists.
	if strings.Index(text, "ring.delivered") > strings.Index(text, "ring.forwarded") {
		t.Fatalf("counters not sorted:\n%s", text)
	}
}

func TestSnapshotDelta(t *testing.T) {
	r := New(0)
	r.Counter("net.bytes_out").Add(100)
	r.Gauge("fl.accuracy").Set(0.5)
	r.Histogram("hops", HopBuckets).Observe(3)
	prev := r.Snapshot()

	r.Counter("net.bytes_out").Add(40)
	r.Counter("net.msgs_out").Add(7) // born after prev
	r.Gauge("fl.accuracy").Set(0.8)
	r.Histogram("hops", HopBuckets).Observe(5)
	cur := r.Snapshot()

	d := cur.Delta(prev)
	if d.Counters["net.bytes_out"] != 40 {
		t.Fatalf("bytes_out delta = %d, want 40", d.Counters["net.bytes_out"])
	}
	if d.Counters["net.msgs_out"] != 7 {
		t.Fatalf("new counter delta = %d, want 7", d.Counters["net.msgs_out"])
	}
	// Gauges are levels: Delta keeps the current value.
	if d.Gauges["fl.accuracy"] != 0.8 {
		t.Fatalf("gauge = %v, want 0.8", d.Gauges["fl.accuracy"])
	}
	h := d.Histograms["hops"]
	if h.Count != 1 || h.Sum != 5 {
		t.Fatalf("hist delta count=%d sum=%v, want 1/5", h.Count, h.Sum)
	}
	// Inputs untouched.
	if cur.Counters["net.bytes_out"] != 140 || prev.Counters["net.bytes_out"] != 100 {
		t.Fatal("Delta modified its inputs")
	}
	if cur.Histograms["hops"].Count != 2 {
		t.Fatal("Delta modified cur's histogram")
	}
}

func TestConcurrentCounters(t *testing.T) {
	r := New(0)
	c := r.Counter("n")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Fatalf("concurrent counter = %d, want 8000", got)
	}
}
