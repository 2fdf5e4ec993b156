// Package obs is Totoro's dependency-free telemetry core: named counters,
// gauges, and fixed-bucket histograms held in a Registry, plus a bounded
// ring buffer of structured trace events (see trace.go).
//
// Every layer of the stack — overlay routing, pub/sub trees, the FL
// driver, the transports — emits through one Registry instead of keeping
// layer-private Stats structs, so experiments, live exposition (http.go),
// and failover diagnostics all read the same numbers.
//
// Design rules:
//
//   - No clock. obs never calls time.Now; every trace event is
//     timestamped by the caller with transport.Env.Now, so the same
//     instrumentation is virtual-time-deterministic under the simulator
//     and wall-clock under TCP.
//   - Thread-safe but cheap on the hot path: counters and gauges are
//     atomics, and emitters cache instrument handles at construction
//     instead of looking the name up per event.
//   - Nil-safe: every method works on a nil *Registry (instruments become
//     no-ops), so optional instrumentation needs no branching.
//   - Deterministic exposition: snapshots render in sorted name order, so
//     two same-seed simulator runs produce bit-identical reports (the
//     determinism tests rely on this).
package obs

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64 metric.
type Counter struct{ v atomic.Int64 }

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds d (d must be >= 0 for the counter to stay monotone).
func (c *Counter) Add(d int64) {
	if c != nil {
		c.v.Add(d)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// reset zeroes the counter (Registry.ResetCounters, experiment phases).
func (c *Counter) reset() { c.v.Store(0) }

// Gauge is a float64 metric that can move in both directions.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the last stored value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into a fixed bucket layout. Bucket i
// counts observations <= Bounds[i]; the final implicit bucket counts the
// rest. The layout is fixed at creation so that histograms from different
// nodes merge bucket-by-bucket.
type Histogram struct {
	mu     sync.Mutex
	layout *layout
	tally  *tally // created by the first Observe
}

// layout is a histogram's bucket bounds, one interned copy per distinct
// layout.
type layout struct{ bounds []float64 }

type tally struct {
	counts []int64 // len(bounds)+1
	sum    float64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	if h.tally == nil {
		h.tally = &tally{counts: make([]int64, len(h.layout.bounds)+1)}
	}
	h.tally.counts[sort.SearchFloat64s(h.layout.bounds, v)]++
	h.tally.sum += v
	h.mu.Unlock()
}

// mergeInto folds the histogram's state into s under name.
func (h *Histogram) mergeInto(s Snapshot, name string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	var t tally
	if h.tally != nil {
		t = *h.tally
	}
	count := int64(0)
	for _, c := range t.counts {
		count += c
	}
	s.addHist(name, h.layout.bounds, t.counts, len(h.layout.bounds)+1, count, t.sum)
}

// Fixed bucket layouts shared by all layers, so per-node histograms merge.
var (
	// HopBuckets covers overlay route lengths (O(log N) hops).
	HopBuckets = []float64{0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32}
	// DepthBuckets covers dataflow-tree depths.
	DepthBuckets = []float64{0, 1, 2, 3, 4, 5, 6, 8, 10, 12, 16}
	// ByteBuckets covers wire sizes from header-only frames to full models.
	ByteBuckets = []float64{64, 256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20}
)

// instKind is the type of an instrument; names are per kind.
type instKind uint8

const (
	kindCounter instKind = iota
	kindGauge
	kindHist
	numKinds
)

type instKey struct {
	kind instKind
	name string
}

// interned is the process-wide table of instrument names and histogram
// layouts: a fleet of identical protocol stacks keeps one copy of each here,
// and every registry two bytes per instrument. The table only grows and an
// entry never changes, so readers take no lock: keys is republished, longer,
// after every new name.
var interned = struct {
	mu      sync.Mutex
	ids     map[instKey]uint16
	keys    atomic.Pointer[[]instKey]
	layouts []*layout
	lookups int // calls of intern, for the tests
}{ids: make(map[instKey]uint16)}

// intern returns k's id.
func intern(k instKey) uint16 {
	t := &interned
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lookups++
	id, ok := t.ids[k]
	if !ok {
		keys := internedKeys()
		if len(keys) > math.MaxUint16 {
			panic("obs: more than 65536 distinct instrument names")
		}
		id = uint16(len(keys))
		t.ids[k] = id
		keys = append(keys, k)
		t.keys.Store(&keys)
	}
	return id
}

// internedKeys returns the key of every id handed out so far.
func internedKeys() []instKey {
	if keys := interned.keys.Load(); keys != nil {
		return *keys
	}
	return nil
}

func internLayout(bounds []float64) *layout {
	t := &interned
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, l := range t.layouts {
		if slices.Equal(l.bounds, bounds) {
			return l
		}
	}
	l := &layout{slices.Clone(bounds)}
	t.layouts = append(t.layouts, l)
	return l
}

// slab stores instruments in chunks that never move, so the handles a
// registry gave out stay valid as it grows.
type slab[T any] struct{ chunks [][]T }

func (s *slab[T]) len() int {
	n := 0
	for _, c := range s.chunks {
		n += len(c)
	}
	return n
}

func (s *slab[T]) at(i int) *T {
	for _, c := range s.chunks {
		if i < len(c) {
			return &c[i]
		}
		i -= len(c)
	}
	panic("obs: instrument ordinal out of range")
}

// reserve makes room for n elements in one chunk. The slab must be empty.
func (s *slab[T]) reserve(n int) {
	if n > 0 {
		s.chunks = [][]T{make([]T, 0, n)}
	}
}

// grow appends one zero element; when the last chunk is full, the new one
// is as large as all the others together.
func (s *slab[T]) grow() *T {
	if k := len(s.chunks); k > 0 {
		if c := s.chunks[k-1]; len(c) < cap(c) {
			s.chunks[k-1] = c[:len(c)+1]
			return &s.chunks[k-1][len(c)]
		}
	}
	c := make([]T, 1, max(s.len(), 4))
	s.chunks = append(s.chunks, c)
	return &c[0]
}

// Registry holds one node's named instruments plus its trace ring.
// Instruments are created on first use and live for the registry's
// lifetime; emitters should cache the returned handles.
type Registry struct {
	mu sync.Mutex
	// ids are the interned keys of the registry's instruments in the order
	// they were registered. An instrument's value is the element of its
	// kind's slab at the instrument's position among those of its kind.
	//
	// While follows is set, ids is a prefix of the model's ids in the model's
	// own array, and cap(ids) is how many the model had: what the model
	// registered next is ids[:len(ids)+1]'s last element. That array is only
	// read here; the first name out of the model's order moves ids to an array
	// of the registry's own.
	ids      []uint16
	follows  bool
	counters slab[Counter]
	gauges   slab[Gauge]
	hists    slab[Histogram]
	trace    traceRing
}

// DefaultTraceCap bounds the per-registry trace ring when New is called
// with cap <= 0.
const DefaultTraceCap = 256

// New creates a registry whose trace ring holds up to traceCap events
// (<= 0 means DefaultTraceCap).
func New(traceCap int) *Registry {
	if traceCap <= 0 {
		traceCap = DefaultTraceCap
	}
	return &Registry{trace: traceRing{cap: traceCap}}
}

// NewLike is New for a registry expected to register what model has (a
// fleet builds the same protocol stack on every node): room for exactly
// that many instruments of each kind is allocated up front, and as long as
// the registry asks for the model's instruments in the model's order, each
// is resolved by its position — no look-up of the name. A nil model means
// New.
func NewLike(traceCap int, model *Registry) *Registry {
	r := New(traceCap)
	if model != nil {
		model.mu.Lock()
		defer model.mu.Unlock()
		r.ids, r.follows = model.ids[:0:len(model.ids)], true
		r.counters.reserve(model.counters.len())
		r.gauges.reserve(model.gauges.len())
		r.hists.reserve(model.hists.len())
	}
	return r
}

// find returns the position of instrument k among the registry's
// instruments of its kind — the number of those, when it has not registered
// k — and k's id. Caller holds r.mu.
func (r *Registry) find(k instKey) (ord int, id uint16, ok bool) {
	id = intern(k)
	keys := internedKeys()
	for _, have := range r.ids {
		if have == id {
			return ord, id, true
		}
		if keys[have].kind == k.kind {
			ord++
		}
	}
	return ord, id, false
}

// slot is find, registering k if the registry has not; fresh reports that,
// and ord then counts for nothing (the instrument is the next of its kind).
// The model's next instrument is recognised without looking its name up.
// Caller holds r.mu.
func (r *Registry) slot(k instKey) (ord int, fresh bool) {
	if n := len(r.ids); r.follows && n < cap(r.ids) {
		if next := r.ids[:n+1]; internedKeys()[next[n]] == k {
			r.ids = next // the model has no name twice, so k is new here
			return 0, true
		}
	}
	ord, id, ok := r.find(k)
	if !ok {
		if r.follows {
			r.ids, r.follows = slices.Clip(r.ids), false
		}
		r.ids = append(r.ids, id)
	}
	return ord, !ok
}

// each calls f with the key and position-among-its-kind of every
// instrument. Caller holds r.mu.
func (r *Registry) each(f func(k instKey, ord int)) {
	keys := internedKeys()
	var ord [numKinds]int
	for _, id := range r.ids {
		k := keys[id]
		f(k, ord[k.kind])
		ord[k.kind]++
	}
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ord, fresh := r.slot(instKey{kindCounter, name})
	if fresh {
		return r.counters.grow()
	}
	return r.counters.at(ord)
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ord, fresh := r.slot(instKey{kindGauge, name})
	if fresh {
		return r.gauges.grow()
	}
	return r.gauges.at(ord)
}

// Histogram returns (creating if needed) the named histogram with the
// given bucket layout; an existing histogram keeps its original layout.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ord, fresh := r.slot(instKey{kindHist, name})
	if fresh {
		h := r.hists.grow()
		h.layout = internLayout(bounds)
		return h
	}
	return r.hists.at(ord)
}

// ResetCounters zeroes the named counters if they exist (experiment
// harnesses reset traffic tallies between phases).
func (r *Registry) ResetCounters(names ...string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range names {
		if ord, _, ok := r.find(instKey{kindCounter, name}); ok {
			r.counters.at(ord).reset()
		}
	}
}

// HistSnapshot is one histogram's frozen state.
type HistSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// Snapshot is a frozen, mergeable view of a registry (or of many merged
// registries). JSON encoding and String both render in sorted name order.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters"`
	Gauges     map[string]float64      `json:"gauges"`
	Histograms map[string]HistSnapshot `json:"histograms"`
}

// Snapshot freezes the registry's current instrument values. (It assigns
// where MergeInto adds: 0 + v is not v for a gauge holding -0.)
func (r *Registry) Snapshot() Snapshot {
	s := MergeSnapshots()
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.each(func(k instKey, ord int) {
		switch k.kind {
		case kindCounter:
			s.Counters[k.name] = r.counters.at(ord).Value()
		case kindGauge:
			s.Gauges[k.name] = r.gauges.at(ord).Value()
		case kindHist:
			r.hists.at(ord).mergeInto(s, k.name)
		}
	})
	return s
}

// MergeInto folds the registry's current values into s exactly as
// s.Merge(r.Snapshot()) would, without building the snapshot in between —
// what a fleet-wide merge over tens of thousands of registries wants.
func (r *Registry) MergeInto(s Snapshot) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.each(func(k instKey, ord int) {
		switch k.kind {
		case kindCounter:
			s.Counters[k.name] += r.counters.at(ord).Value()
		case kindGauge:
			s.Gauges[k.name] += r.gauges.at(ord).Value()
		case kindHist:
			r.hists.at(ord).mergeInto(s, k.name)
		}
	})
}

// addHist folds one histogram's tallies (counts may be nil for "all zero",
// n is the bucket count) into s.Histograms[name]. A layout with another
// bucket count than the one already there replaces it.
func (s Snapshot) addHist(name string, bounds []float64, counts []int64, n int, count int64, sum float64) {
	cur, ok := s.Histograms[name]
	if !ok || len(cur.Counts) != n {
		fresh := HistSnapshot{
			Bounds: append([]float64(nil), bounds...),
			Counts: append([]int64(nil), counts...),
			Count:  count,
			Sum:    sum,
		}
		if counts == nil && n > 0 {
			fresh.Counts = make([]int64, n)
		}
		s.Histograms[name] = fresh
		return
	}
	for i, c := range counts {
		cur.Counts[i] += c
	}
	cur.Count += count
	cur.Sum += sum
	s.Histograms[name] = cur
}

// Merge folds o into s (summing counters, histograms bucket-by-bucket,
// and gauges — per-node gauges aggregate additively across a fleet) and
// returns s for chaining.
func (s Snapshot) Merge(o Snapshot) Snapshot {
	for name, v := range o.Counters {
		s.Counters[name] += v
	}
	for name, v := range o.Gauges {
		s.Gauges[name] += v
	}
	for name, h := range o.Histograms {
		s.addHist(name, h.Bounds, h.Counts, len(h.Counts), h.Count, h.Sum)
	}
	return s
}

// Delta returns the change from prev to s: counters and histogram tallies
// are subtracted (an instrument absent from prev counts from zero), gauges
// keep s's current value (they are levels, not totals). Experiments use it
// to report per-phase or per-round movement from cumulative registries
// without resetting live counters. Neither receiver nor argument is
// modified.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	out := Snapshot{
		Counters:   make(map[string]int64, len(s.Counters)),
		Gauges:     make(map[string]float64, len(s.Gauges)),
		Histograms: make(map[string]HistSnapshot, len(s.Histograms)),
	}
	for name, v := range s.Counters {
		out.Counters[name] = v - prev.Counters[name]
	}
	for name, v := range s.Gauges {
		out.Gauges[name] = v
	}
	for name, h := range s.Histograms {
		d := HistSnapshot{
			Bounds: append([]float64(nil), h.Bounds...),
			Counts: append([]int64(nil), h.Counts...),
			Count:  h.Count,
			Sum:    h.Sum,
		}
		if p, ok := prev.Histograms[name]; ok && len(p.Counts) == len(d.Counts) {
			for i := range d.Counts {
				d.Counts[i] -= p.Counts[i]
			}
			d.Count -= p.Count
			d.Sum -= p.Sum
		}
		out.Histograms[name] = d
	}
	return out
}

// MergeSnapshots sums a fleet of per-node snapshots into one.
func MergeSnapshots(snaps ...Snapshot) Snapshot {
	out := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistSnapshot{},
	}
	for _, s := range snaps {
		out = out.Merge(s)
	}
	return out
}

// String renders the snapshot as sorted "kind name value" lines — the
// deterministic text form the determinism tests and totoro-sim -metrics
// use.
func (s Snapshot) String() string {
	var b strings.Builder
	for _, name := range sortedKeys(s.Counters) {
		fmt.Fprintf(&b, "counter %s %d\n", name, s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		fmt.Fprintf(&b, "gauge %s %g\n", name, s.Gauges[name])
	}
	hnames := make([]string, 0, len(s.Histograms))
	for name := range s.Histograms {
		hnames = append(hnames, name)
	}
	sort.Strings(hnames)
	for _, name := range hnames {
		h := s.Histograms[name]
		fmt.Fprintf(&b, "hist %s count=%d sum=%g", name, h.Count, h.Sum)
		for i, c := range h.Counts {
			if c == 0 {
				continue
			}
			if i < len(h.Bounds) {
				fmt.Fprintf(&b, " le%g=%d", h.Bounds[i], c)
			} else {
				fmt.Fprintf(&b, " inf=%d", c)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
