package obs

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// refRing is the trace ring as it was before events were stored as records —
// one Event per slot, Seq stored — kept verbatim but for its name as the
// oracle the record ring must read back identically to.
type refRing struct {
	mu     sync.Mutex
	cap    int
	chunks [][]Event // slot i is chunks[i/traceChunk][i%traceChunk]
	seq    uint64    // total events ever emitted
}

func (t *refRing) slot(i uint64) *Event { return &t.chunks[i/traceChunk][i%traceChunk] }

func (t *refRing) append(e Event) {
	t.mu.Lock()
	i := t.seq % uint64(t.cap)
	if i == uint64(len(t.chunks))*traceChunk { // first pass over the slots only
		t.chunks = append(t.chunks, make([]Event, min(traceChunk, uint64(t.cap)-i)))
	}
	t.seq++
	e.Seq = t.seq
	*t.slot(i) = e
	t.mu.Unlock()
}

func (t *refRing) events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := min(t.seq, uint64(t.cap))
	out := make([]Event, 0, n)
	for s := t.seq - n; s < t.seq; s++ {
		out = append(out, *t.slot(s % uint64(t.cap)))
	}
	return out
}

// randomEvent draws an event from everything an emitter may pass: identifier
// keys and keys that only look like one (upper case, a digit short or long),
// empty, short, long and non-ASCII strings, kinds and notes outside the
// constants, a node other than the registry's usual one, and hop counts
// outside 32 bits. Seq is set to garbage: the ring assigns it.
func randomEvent(rng *rand.Rand) Event {
	pick := func(options ...string) string { return options[rng.Intn(len(options))] }
	id := fmt.Sprintf("%016x%016x", rng.Uint64(), rng.Uint64())
	long := strings.Repeat("long-", 20)
	hops := []int{0, 1, 7, -3, math.MaxInt32, math.MinInt32, math.MaxInt32 + 1, math.MinInt32 - 1, math.MaxInt64}
	return Event{
		At:   time.Duration(rng.Int63n(1 << 40)),
		Seq:  rng.Uint64(),
		Node: pick("n1", "n1", "n1", "n2", "", long),
		Kind: pick(KindRingHop, KindRingDeliver, KindPubSubDeliver, KindPubSubAgg, "custom.kind", "", long+"kind"),
		Key:  pick(id, id, id, strings.ToUpper(id), id[1:], id+"0", "", "m1", "topic-ü", long),
		From: pick("", "n3", "n4", "10.0.0.1:7000", long+"from"),
		To:   pick("", "n3", "n5", long+"to"),
		Hop:  hops[rng.Intn(len(hops))],
		Note: pick("", "sub", "fwd", "root", "other note", long+"note"),
	}
}

// Random streams read back from the record ring exactly as from the ring
// they replaced — every field, Seq included — at every length, across
// wrap-arounds, at every cap either side of the chunk size, whether an
// identifier key comes formatted (Trace) or as its halves (TraceID).
func TestTraceRingMatchesOracle(t *testing.T) {
	for _, cap := range []int{1, 7, 8, 9, 256} {
		for seed := int64(0); seed < 4; seed++ {
			rng := rand.New(rand.NewSource(seed*1000 + int64(cap)))
			r, ref := New(cap), &refRing{cap: cap}
			if got := r.TraceEvents(); len(got) != 0 {
				t.Fatalf("cap %d: a fresh ring holds %v", cap, got)
			}
			n := 4*cap + 13
			for i := 0; i < n; i++ {
				e := randomEvent(rng)
				ref.append(e)
				if hi, lo, ok := parseID(e.Key); ok && rng.Intn(2) == 0 {
					e.Key = "ignored"
					r.TraceID(e, hi, lo)
				} else {
					r.Trace(e)
				}
				if cap > 9 && i%17 != 0 && i != n-1 {
					continue // reading a long ring back after every event is quadratic
				}
				if got, want := r.TraceEvents(), ref.events(); !reflect.DeepEqual(got, want) {
					t.Fatalf("cap %d seed %d after %d events:\n got %+v\nwant %+v", cap, seed, i+1, got, want)
				}
			}
		}
	}
}

// A kind or note whose handle does not fit its 16-bit field spills: with the
// string table past 65536 strings, such events still read back exactly.
func TestWideHandlesSpill(t *testing.T) {
	for i := 0; i <= math.MaxUint16; i++ {
		if _, ok := handleOf(fmt.Sprintf("spill.filler.%d", i)); !ok {
			t.Fatalf("the string table refused filler %d", i)
		}
	}
	r, ref := New(3), &refRing{cap: 3}
	for i, kind := range []string{"spill.kind.a", KindRingHop, "spill.kind.b", "spill.kind.a", KindPubSubAgg} {
		e := Event{At: time.Duration(i), Node: "n1", Kind: kind, Note: "root", Key: "k", Hop: i}
		r.Trace(e)
		ref.append(e)
	}
	if got, want := r.TraceEvents(), ref.events(); !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v\nwant %+v", got, want)
	}
	if len(r.trace.spill) != 2 {
		t.Fatalf("%d events spilled, want the 2 of 3 in the ring with wide handles", len(r.trace.spill))
	}
}

// containsPointers reports whether a value of type t holds anything the
// collector would have to scan.
func containsPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return t.Len() > 0 && containsPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if containsPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Slice, reflect.String,
		reflect.Interface, reflect.Chan, reflect.Func:
		return true
	}
	return false
}

// A ring's chunks are no-scan memory only while a record holds no pointer,
// and a record is worth having only while it is smaller than the Event it
// replaced.
func TestRecordIsPointerFree(t *testing.T) {
	rt := reflect.TypeOf(record{})
	if containsPointers(rt) {
		t.Fatalf("%v holds a pointer", rt)
	}
	if !containsPointers(reflect.TypeOf(Event{})) {
		t.Fatal("containsPointers misses the strings of Event")
	}
	if rt.Size() > 64 {
		t.Fatalf("a record takes %d bytes, want at most 64", rt.Size())
	}
}

// ringHop is what a routing hop emits.
var ringHop = Event{At: time.Second, Node: "n1", Kind: KindRingHop, To: "n2", Hop: 3}

// Once the ring is full, recording an event allocates nothing, whether its
// identifier key comes as its halves or formatted.
func TestTraceAppendDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	r := New(0)
	keyed := ringHop
	keyed.Key = "0123456789abcdef0123456789abcdef"
	for i := 0; i < DefaultTraceCap; i++ {
		r.Trace(keyed)
	}
	if got := testing.AllocsPerRun(1000, func() { r.TraceID(ringHop, 1, 2) }); got != 0 {
		t.Errorf("TraceID allocates %.0f times an event, want 0", got)
	}
	if got := testing.AllocsPerRun(1000, func() { r.Trace(keyed) }); got != 0 {
		t.Errorf("Trace allocates %.0f times an event, want 0", got)
	}
}

// BenchmarkTraceAppend is one trace event into a full ring, in the shapes the
// stack and the benchmark emit. A string that is neither seeded nor an
// identifier costs a look-up in the locked string table:
//   - deliver: a tree delivery through TraceID, as pubsub records it (none);
//   - hop: a routing hop through TraceID, as ring records it (its To);
//   - probe: the benchmark's obs.trace_append_ns event through Trace (its
//     To "n2" and its 16-hex Key, which is not an identifier);
//   - probe-no-key and probe-bare: that event without its Key, and without
//     its Key and To.
func BenchmarkTraceAppend(b *testing.B) {
	probe := Event{At: time.Second, Node: "n1", Kind: KindRingHop, Key: "0123456789abcdef", To: "n2", Hop: 3}
	noKey := probe
	noKey.Key = ""
	bare := noKey
	bare.To = ""
	deliver := Event{At: time.Second, Node: "n1", Kind: KindPubSubDeliver, Hop: 3, Note: "sub"}
	for _, c := range []struct {
		name string
		emit func(r *Registry, i int)
	}{
		{"deliver", func(r *Registry, i int) { r.TraceID(deliver, 1, uint64(i)) }},
		{"hop", func(r *Registry, i int) { r.TraceID(ringHop, 1, uint64(i)) }},
		{"probe", func(r *Registry, _ int) { r.Trace(probe) }},
		{"probe-no-key", func(r *Registry, _ int) { r.Trace(noKey) }},
		{"probe-bare", func(r *Registry, _ int) { r.Trace(bare) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			r := New(0)
			for i := 0; i < DefaultTraceCap; i++ {
				c.emit(r, i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.emit(r, i)
			}
		})
	}
}

// One registry shared by goroutines, as tcpnet's per-process registry is:
// readers see every event whole and the ring's Seq gap-free, and the race
// detector stays quiet.
func TestTraceConcurrentAppendAndRead(t *testing.T) {
	const writers, perWriter = 4, 2000
	r := New(64)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			node := fmt.Sprintf("w%d", w)
			for i := 0; i < perWriter; i++ {
				e := Event{At: time.Duration(i), Node: node, Kind: KindPubSubDeliver, From: node + ".from", Hop: i}
				if i%3 == 0 {
					e.Key = fmt.Sprintf("%016x%016x", w, i)
					r.Trace(e)
				} else {
					r.TraceID(e, uint64(w), uint64(i))
				}
			}
		}()
	}
	done := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				events := r.TraceEvents()
				for i, e := range events {
					if i > 0 && e.Seq != events[i-1].Seq+1 {
						t.Errorf("Seq jumps from %d to %d", events[i-1].Seq, e.Seq)
						return
					}
					var w int
					fmt.Sscanf(e.Node, "w%d", &w)
					if want := fmt.Sprintf("%016x%016x", w, e.Hop); e.Key != want || e.From != e.Node+".from" || e.At != time.Duration(e.Hop) {
						t.Errorf("torn event %+v", e)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	readers.Wait()
	if ev := r.TraceEvents(); len(ev) != 64 || ev[63].Seq != writers*perWriter {
		t.Fatalf("ring ends with %d events, last Seq %d; want 64 and %d", len(ev), ev[len(ev)-1].Seq, writers*perWriter)
	}
}
