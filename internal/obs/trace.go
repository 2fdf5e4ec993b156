package obs

import (
	"sort"
	"strconv"
	"sync"
	"time"
)

// Event is one structured trace record. Layers emit events for the
// moments worth reconstructing after the fact — a routing hop, a tree
// delivery, an aggregate flush — and the bounded ring keeps the most
// recent ones per node.
//
// At is whatever clock the emitting Env runs on: virtual time under the
// simulator (deterministic), wall time since node start under TCP. Node
// is the emitter's address as a string (obs deliberately does not import
// transport, so transport can import obs).
type Event struct {
	At   time.Duration `json:"at"`
	Seq  uint64        `json:"seq"` // per-registry emission order
	Node string        `json:"node"`
	Kind string        `json:"kind"`           // e.g. "ring.hop", "pubsub.deliver"
	Key  string        `json:"key,omitempty"`  // message/topic identity, e.g. an ids.ID string
	From string        `json:"from,omitempty"` // previous hop, if any
	To   string        `json:"to,omitempty"`   // next hop, if any
	Hop  int           `json:"hop,omitempty"`  // hop count or tree depth
	Note string        `json:"note,omitempty"`
}

// Trace kinds emitted by the stack. Kept here as constants so readers
// (experiments, PathOf callers) and emitters agree on spelling.
const (
	KindRingHop       = "ring.hop"       // Key=msg ID, To=next hop, Hop=hops so far
	KindRingDeliver   = "ring.deliver"   // Key=msg ID, Hop=total hops
	KindPubSubDeliver = "pubsub.deliver" // Key=topic, Hop=tree depth, Note="sub"|"fwd"
	KindPubSubAgg     = "pubsub.agg"     // Key=topic, Hop=contribution count, Note="root"
)

// traceChunk is how many events the ring grows by. Most nodes of a fleet
// record a few dozen events, far below the cap; growing in small fixed
// chunks allocates what is stored and nothing else, where doubling a slice
// allocates twice that and leaves half of it as garbage.
const traceChunk = 8

// traceRing is a bounded ring buffer of events. The event numbered s (from
// 0) is stored in slot s%cap until event s+cap overwrites it.
type traceRing struct {
	mu     sync.Mutex
	cap    int
	chunks [][]Event // slot i is chunks[i/traceChunk][i%traceChunk]
	seq    uint64    // total events ever emitted
}

func (t *traceRing) slot(i uint64) *Event { return &t.chunks[i/traceChunk][i%traceChunk] }

func (t *traceRing) append(e Event) {
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

func (t *traceRing) events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := min(t.seq, uint64(t.cap))
	out := make([]Event, 0, n)
	for s := t.seq - n; s < t.seq; s++ {
		out = append(out, *t.slot(s % uint64(t.cap)))
	}
	return out
}

// Trace records an event in the registry's ring buffer. The registry
// assigns Seq; callers fill everything else. Nil-safe.
func (r *Registry) Trace(e Event) {
	if r == nil {
		return
	}
	r.trace.append(e)
}

// TraceEvents returns the buffered events, oldest first.
func (r *Registry) TraceEvents() []Event {
	if r == nil {
		return nil
	}
	return r.trace.events()
}

// MergeTraces interleaves per-node event streams into one global
// timeline, ordered by (At, Node, Seq) — a deterministic order under the
// simulator, where At is virtual time.
func MergeTraces(streams ...[]Event) []Event {
	var out []Event
	for _, s := range streams {
		out = append(out, s...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// PathOf reconstructs a routed message's path from a merged timeline:
// the ring.hop events for the given key in hop order, then its
// ring.deliver event. The returned slice is the full per-hop record —
// PathString renders it compactly.
func PathOf(events []Event, key string) []Event {
	var hops, delivers []Event
	for _, e := range events {
		if e.Key != key {
			continue
		}
		switch e.Kind {
		case KindRingHop:
			hops = append(hops, e)
		case KindRingDeliver:
			delivers = append(delivers, e)
		}
	}
	sort.SliceStable(hops, func(i, j int) bool { return hops[i].Hop < hops[j].Hop })
	return append(hops, delivers...)
}

// PathString renders a PathOf result as "a -> b -> c (delivered hop=2)".
func PathString(path []Event) string {
	if len(path) == 0 {
		return "(no trace)"
	}
	s := ""
	for _, e := range path {
		if e.Kind != KindRingHop {
			continue
		}
		if s == "" {
			s = e.Node
		}
		s += " -> " + e.To
	}
	last := path[len(path)-1]
	if last.Kind == KindRingDeliver {
		if s == "" {
			s = last.Node
		}
		s += " (delivered hop=" + strconv.Itoa(last.Hop) + ")"
	}
	return s
}
