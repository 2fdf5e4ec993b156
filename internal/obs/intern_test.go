package obs

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// fleetOf builds registries the way a mixed fleet does: most register the
// same instruments in the same order, some skip or add a few, some never
// observe a histogram they registered, and one registers a histogram name
// under another layout than the rest.
func fleetOf(n int, seed int64) []*Registry {
	rng := rand.New(rand.NewSource(seed))
	regs := make([]*Registry, n)
	for i := range regs {
		r := New(0)
		r.Counter("net.msgs_out").Add(int64(rng.Intn(1000)))
		if i%3 != 0 {
			r.Counter("net.bytes_out").Add(int64(rng.Intn(1 << 20)))
		}
		hops := r.Histogram("ring.route_hops", HopBuckets)
		for k := rng.Intn(4); k > 0; k-- {
			hops.Observe(rng.Float64() * 40) // float sums: merge order matters
		}
		if i%5 == 0 {
			r.Gauge("fl.accuracy").Set(rng.Float64())
			r.Counter("fl.rounds").Inc()
		}
		if i%7 == 0 {
			r.Histogram("fl.update_size", ByteBuckets).Observe(float64(rng.Intn(1 << 22)))
		}
		if i == n/2 {
			r.Histogram("pubsub.deliver_depth", []float64{1, 2}).Observe(1.5)
		} else {
			r.Histogram("pubsub.deliver_depth", DepthBuckets)
		}
		regs[i] = r
	}
	return regs
}

// The streaming fold (MergeInto, what simnet.MergedSnapshot uses) must
// produce the snapshot that merging materialised per-registry snapshots
// produces, in every rendering.
func TestMergeIntoMatchesMergedSnapshots(t *testing.T) {
	regs := fleetOf(60, 7)
	snaps := make([]Snapshot, len(regs))
	for i, r := range regs {
		snaps[i] = r.Snapshot()
	}
	want := MergeSnapshots(snaps...)
	got := MergeSnapshots()
	for _, r := range regs {
		r.MergeInto(got)
	}
	if got.String() != want.String() {
		t.Fatalf("text form differs:\n--- fold\n%s--- merged snapshots\n%s", got, want)
	}
	if got.PromText() != want.PromText() {
		t.Fatal("Prometheus form differs")
	}
	gj, _ := json.Marshal(got)
	wj, _ := json.Marshal(want)
	if string(gj) != string(wj) {
		t.Fatalf("JSON form differs:\n%s\n%s", gj, wj)
	}
	empty := MergeSnapshots()
	if d := got.Delta(empty).String(); d != want.Delta(empty).String() {
		t.Fatal("Delta form differs")
	}
}

// Registries share the interned names and nothing else: each keeps its own
// values under its own names, whatever order it registered them in, and
// handles stay valid as a registry grows.
func TestRegistriesKeepInstrumentsApart(t *testing.T) {
	a, b := New(0), New(0)
	ax := a.Counter("t.x")
	a.Counter("t.y").Add(2)
	c := NewLike(0, a) // sized for a's two counters, holds other ones
	bx := b.Counter("t.x")
	bz := b.Counter("t.z")
	cy := c.Counter("t.y")
	ax.Add(1)
	bx.Add(10)
	bz.Add(20)
	cy.Add(30)
	for i := 0; i < 40; i++ { // grow a past its first slab chunk
		a.Counter(fmt.Sprintf("t.more%d", i)).Add(int64(i))
	}
	ax.Add(1) // an early handle still reaches a's counter
	if a.Counter("t.x") != ax || b.Counter("t.x") != bx || ax == bx {
		t.Fatal("a name must keep returning its registry's own handle")
	}
	check := func(name string, r *Registry, want map[string]int64) {
		t.Helper()
		got := r.Snapshot().Counters
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("%s: %s = %d, want %d", name, k, got[k], v)
			}
		}
		if name != "a" && len(got) != len(want) {
			t.Fatalf("%s: holds %v, want exactly %v", name, got, want)
		}
	}
	check("a", a, map[string]int64{"t.x": 2, "t.y": 2, "t.more39": 39})
	check("b", b, map[string]int64{"t.x": 10, "t.z": 20})
	check("c", c, map[string]int64{"t.y": 30})
	if len(a.Snapshot().Counters) != 42 {
		t.Fatalf("a holds %d counters, want 42", len(a.Snapshot().Counters))
	}
	// A name is per kind: a gauge may share a counter's name.
	a.Gauge("t.x").Set(0.5)
	if s := a.Snapshot(); s.Counters["t.x"] != 2 || s.Gauges["t.x"] != 0.5 {
		t.Fatalf("counter and gauge named alike got mixed up: %v %v", s.Counters["t.x"], s.Gauges["t.x"])
	}
	// An existing histogram keeps its layout whatever a later caller passes.
	h := a.Histogram("t.h", HopBuckets)
	if a.Histogram("t.h", ByteBuckets) != h || len(a.Snapshot().Histograms["t.h"].Bounds) != len(HopBuckets) {
		t.Fatal("re-registering a histogram changed its identity or layout")
	}
}

// A registry holding what one simulated node registers — the transport's
// four counters, the engine's two, ring's six and a histogram, pubsub's ten
// and a histogram — costs at most 512 bytes while idle (it was 2 KB as
// three maps of separately allocated instruments).
func TestStandardRegistryFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("heap byte budgets do not hold under the race detector")
	}
	names := []string{
		"net.msgs_in", "net.msgs_out", "net.bytes_in", "net.bytes_out",
		"engine.promotions", "engine.rounds",
		"ring.delivered", "ring.forwarded", "ring.hop_retries", "ring.joins", "ring.leafset_repairs", "ring.recontact_probes",
		"pubsub.multicasts_sent", "pubsub.upstreams_sent", "pubsub.upstream_dupes", "pubsub.stale_upstreams", "pubsub.repairs",
		"pubsub.join_intercepts", "pubsub.flushes", "pubsub.timeout_flushes", "pubsub.deliveries", "pubsub.root_handoffs",
	}
	var model *Registry // as in simnet.AddNode: each node's registry is sized like the one before
	build := func() *Registry {
		r := NewLike(0, model)
		model = r
		for _, name := range names[:12] {
			r.Counter(name)
		}
		r.Histogram("ring.route_hops", HopBuckets)
		for _, name := range names[12:] {
			r.Counter(name)
		}
		r.Histogram("pubsub.deliver_depth", DepthBuckets)
		return r
	}
	const n = 10000
	regs := make([]*Registry, n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	build()
	for i := range regs {
		regs[i] = build()
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := float64(after.HeapAlloc-before.HeapAlloc) / n
	t.Logf("%.0f bytes per registry", per)
	if per > 512 {
		t.Fatalf("a standard registry costs %.0f bytes, want <= 512", per)
	}
	runtime.KeepAlive(regs)
}
