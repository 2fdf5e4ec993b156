package obs

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
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

func internLookups() int {
	interned.mu.Lock()
	defer interned.mu.Unlock()
	return interned.lookups
}

// A registry built like a model and asked for the model's instruments in the
// model's order resolves every one by position: the intern table is not
// consulted once, for new instruments or for ones asked for again.
func TestRegisteringInModelOrderLooksNothingUp(t *testing.T) {
	stack := func(r *Registry) (c1, c2 *Counter, g *Gauge, h *Histogram) {
		c1 = r.Counter("pos.a")
		g = r.Gauge("pos.a") // a name is per kind
		h = r.Histogram("pos.h", HopBuckets)
		c2 = r.Counter("pos.b")
		return
	}
	model := New(0)
	stack(model)
	before := internLookups()
	var last *Registry
	for i := 0; i < 3; i++ { // each sized like the one before, as simnet.AddNode does
		r := NewLike(0, model)
		c1, c2, g, h := stack(r)
		c1.Add(1)
		c2.Add(2)
		g.Set(3)
		h.Observe(4)
		model, last = r, r
	}
	if n := internLookups() - before; n != 0 {
		t.Fatalf("%d intern look-ups while registering in model order, want 0", n)
	}
	s := last.Snapshot()
	if s.Counters["pos.a"] != 1 || s.Counters["pos.b"] != 2 || s.Gauges["pos.a"] != 3 || s.Histograms["pos.h"].Sum != 4 || len(s.Counters) != 2 {
		t.Fatalf("instruments registered by position hold the wrong values:\n%s", s)
	}
}

// Leaving the model's order — another order, a name repeated early, names
// the model never had, more names than the model — falls back to the name
// look-up, leaves the model and its other followers untouched, and every
// name keeps resolving to its own instrument.
func TestRegisteringOutOfModelOrderStillResolves(t *testing.T) {
	names := []string{"ord.a", "ord.b", "ord.c", "ord.d"}
	model := New(0)
	for i, name := range names {
		model.Counter(name).Add(int64(100 + i))
	}
	orders := map[string][]string{
		"same":     {"ord.a", "ord.b", "ord.c", "ord.d"},
		"reversed": {"ord.d", "ord.c", "ord.b", "ord.a"},
		"repeat":   {"ord.a", "ord.a", "ord.b", "ord.a", "ord.c", "ord.b", "ord.d"},
		"swap":     {"ord.a", "ord.c", "ord.b", "ord.c", "ord.d"},
		"extra":    {"ord.a", "ord.x", "ord.b", "ord.c", "ord.d", "ord.y"},
		"longer":   {"ord.a", "ord.b", "ord.c", "ord.d", "ord.e", "ord.f"},
		"partial":  {"ord.a", "ord.b"},
	}
	regs := make(map[string]*Registry)
	for label, order := range orders {
		r := NewLike(0, model)
		regs[label] = r
		handles := make(map[string]*Counter)
		for _, name := range order {
			c := r.Counter(name)
			if prev, ok := handles[name]; ok && prev != c {
				t.Fatalf("%s: %s resolved to two instruments", label, name)
			}
			handles[name] = c
			c.Inc()
		}
	}
	model.Counter("ord.late").Inc() // the model grows after its followers were made
	checkOwn := func(label string) {
		t.Helper()
		want := make(map[string]int64)
		for _, name := range orders[label] {
			want[name]++
		}
		if got := regs[label].Snapshot().Counters; fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: counters %v, want %v", label, got, want)
		}
	}
	for label := range orders {
		checkOwn(label)
	}
	if got := model.Snapshot().Counters; len(got) != 5 || got["ord.a"] != 100 || got["ord.d"] != 103 || got["ord.late"] != 1 {
		t.Fatalf("followers disturbed the model: %v", got)
	}
	// A follower is a model in turn, whether or not it kept to the order.
	for _, label := range []string{"same", "reversed", "partial"} {
		r := NewLike(0, regs[label])
		for _, name := range names {
			r.Counter(name).Add(7)
		}
		if got := r.Snapshot().Counters; len(got) != 4 || got["ord.a"] != 7 || got["ord.d"] != 7 {
			t.Fatalf("follower of %q: %v", label, got)
		}
		checkOwn(label) // and left its model alone
	}
}

// Followers read the model's id array while the model, one shared registry
// used from several goroutines (as under tcpnet), keeps registering: the
// race detector must stay quiet and every follower complete.
func TestFollowersRegisterWhileModelGrows(t *testing.T) {
	model := New(0)
	for i := 0; i < 8; i++ {
		model.Counter(fmt.Sprintf("conc.%d", i))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				model.Counter(fmt.Sprintf("conc.%d", (g*200+i)%40)).Inc()
				r := NewLike(0, model)
				for k := 0; k < 8; k++ {
					r.Counter(fmt.Sprintf("conc.%d", k)).Inc()
				}
				r.Counter("conc.own").Inc()
				if got := r.Snapshot().Counters; len(got) != 9 || got["conc.7"] != 1 {
					t.Errorf("follower holds %v", got)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := len(model.Snapshot().Counters); got != 40 {
		t.Fatalf("model holds %d counters, want 40", got)
	}
}
