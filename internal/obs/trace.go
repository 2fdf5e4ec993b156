package obs

import (
	"math"
	"sort"
	"strings"
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
// (experiments, tests) and emitters agree on spelling.
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

// record is how a ring stores one event: 48 bytes and no pointers, so the
// collector never scans a ring's chunks. The event's strings are handles
// into the process-wide string table, a key spelling an identifier (32
// lower-case hex digits, what ids.ID renders) is held as its 128 bits, and
// Seq is not stored at all: it follows from the slot. An event a record
// cannot hold exactly — a string the table does not take, a kind or note
// handle past 16 bits, a hop count past 32 — is kept whole in the ring's
// spill map instead.
type record struct {
	at             time.Duration
	key            [2]uint64 // keyID: the identifier; otherwise key[0] is the key's handle
	hop            int32
	node, from, to uint32
	kind, note     uint16
	flags          uint8
}

const (
	keyID   = 1 << iota // key holds an identifier
	spilled             // the event is in traceRing.spill
)

// The string table holds every string a trace record refers to: node
// addresses, kinds, notes and keys that are not identifiers. A fleet emits
// a few such strings per node, over and over, so the table holds about one
// address per node, once per process. It never forgets a string, so it is
// bounded: it takes at most maxTraceStrings strings of at most
// maxTraceString bytes, and an event with any other string is spilled.
// A string's slot in strs is never written again, so a reader copies the
// slice under the lock and reads it after.
const (
	maxTraceStrings = 1 << 20
	maxTraceString  = 64
)

var strtab = struct {
	mu   sync.Mutex
	ids  map[string]uint32
	strs []string // by handle
}{ids: make(map[string]uint32)}

// seeded are the strings the stack emits in every run, at fixed handles:
// handleOf finds them without taking the table's lock.
var seeded = [...]string{"", KindRingHop, KindRingDeliver, KindPubSubDeliver, KindPubSubAgg, "sub", "fwd", "root"}

func init() {
	strtab.strs = seeded[:]
	for h, s := range seeded {
		strtab.ids[s] = uint32(h)
	}
}

// handleOf returns s's handle, adding s to the table if it has room.
func handleOf(s string) (uint32, bool) {
	for h := range seeded {
		if s == seeded[h] {
			return uint32(h), true
		}
	}
	t := &strtab
	t.mu.Lock()
	defer t.mu.Unlock()
	if h, ok := t.ids[s]; ok {
		return h, true
	}
	if len(t.strs) >= maxTraceStrings || len(s) > maxTraceString {
		return 0, false
	}
	s = strings.Clone(s) // the caller's string may pin a larger buffer
	h := uint32(len(t.strs))
	t.ids[s] = h
	t.strs = append(t.strs, s)
	return h, true
}

// parseID reads key as an identifier: 32 lower-case hex digits.
func parseID(key string) (hi, lo uint64, ok bool) {
	if len(key) != 32 {
		return 0, 0, false
	}
	for i := 0; i < len(key); i++ {
		c := uint64(key[i])
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		default:
			return 0, 0, false
		}
		if i < 16 {
			hi = hi<<4 | c
		} else {
			lo = lo<<4 | c
		}
	}
	return hi, lo, true
}

// formatID is parseID's inverse.
func formatID(key [2]uint64) string {
	const digits = "0123456789abcdef"
	var b [32]byte
	for i := 15; i >= 0; i-- {
		b[i], b[16+i] = digits[key[0]&15], digits[key[1]&15]
		key[0] >>= 4
		key[1] >>= 4
	}
	return string(b[:])
}

// traceRing is a bounded ring buffer of events. The event numbered s (from
// 0) is stored in slot s%cap until event s+cap overwrites it.
type traceRing struct {
	mu     sync.Mutex
	cap    int
	chunks [][]record // slot i is chunks[i/traceChunk][i%traceChunk]
	seq    uint64     // total events ever emitted
	// node and nodeH are the Node of the last event and its handle: a
	// registry's events all come from its own node.
	node  string
	nodeH uint32
	spill map[uint64]Event // by slot, the events whose record is marked spilled
}

func (t *traceRing) slot(i uint64) *record { return &t.chunks[i/traceChunk][i%traceChunk] }

// append stores e; id says that key is e's key as an identifier, and then
// e.Key is not read.
//
//vet:noalloc amortized
func (t *traceRing) append(e *Event, id bool, key [2]uint64) {
	t.mu.Lock()
	i := t.seq % uint64(t.cap)
	if i == uint64(len(t.chunks))*traceChunk { // first pass over the slots only
		t.chunks = append(t.chunks, make([]record, min(traceChunk, uint64(t.cap)-i)))
	}
	t.seq++
	rec := t.slot(i)
	if rec.flags&spilled != 0 {
		delete(t.spill, i)
	}
	if !t.encode(rec, e, id, key) {
		*rec = record{flags: spilled}
		if t.spill == nil {
			t.spill = make(map[uint64]Event)
		}
		if id {
			e.Key = formatID(key)
		}
		t.spill[i] = *e
	}
	t.mu.Unlock()
}

// encode writes e into rec and reports whether a record holds it exactly.
func (t *traceRing) encode(rec *record, e *Event, id bool, key [2]uint64) bool {
	if e.Node != t.node {
		h, ok := handleOf(e.Node)
		if !ok {
			return false
		}
		t.node, t.nodeH = e.Node, h
	}
	kind, okKind := handleOf(e.Kind)
	note, okNote := handleOf(e.Note)
	from, okFrom := handleOf(e.From)
	to, okTo := handleOf(e.To)
	flags, okKey := uint8(keyID), true
	if !id {
		key[1], flags = 0, 0
		var h uint32
		h, okKey = handleOf(e.Key)
		key[0] = uint64(h)
	}
	if !okKind || !okNote || !okFrom || !okTo || !okKey ||
		kind > math.MaxUint16 || note > math.MaxUint16 || int(int32(e.Hop)) != e.Hop {
		return false
	}
	*rec = record{
		at: e.At, key: key, hop: int32(e.Hop),
		node: t.nodeH, from: from, to: to,
		kind: uint16(kind), note: uint16(note), flags: flags,
	}
	return true
}

func (t *traceRing) events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	strtab.mu.Lock()
	strs := strtab.strs
	strtab.mu.Unlock()
	n := min(t.seq, uint64(t.cap))
	out := make([]Event, 0, n)
	var key string // formatted from last: a run of events mostly shares its key
	var last [2]uint64
	for s := t.seq - n; s < t.seq; s++ {
		i := s % uint64(t.cap)
		rec := t.slot(i)
		if rec.flags&spilled != 0 {
			e := t.spill[i]
			e.Seq = s + 1
			out = append(out, e)
			continue
		}
		e := Event{
			At: rec.at, Seq: s + 1, Node: strs[rec.node], Kind: strs[rec.kind],
			From: strs[rec.from], To: strs[rec.to], Hop: int(rec.hop), Note: strs[rec.note],
		}
		if rec.flags&keyID == 0 {
			e.Key = strs[rec.key[0]]
		} else {
			if key == "" || rec.key != last {
				key, last = formatID(rec.key), rec.key
			}
			e.Key = key
		}
		out = append(out, e)
	}
	return out
}

// Trace records an event in the registry's ring buffer. The registry
// assigns Seq; callers fill everything else. Nil-safe.
//
//vet:noalloc
func (r *Registry) Trace(e Event) {
	if r == nil {
		return
	}
	hi, lo, id := parseID(e.Key)
	r.trace.append(&e, id, [2]uint64{hi, lo})
}

// TraceID is Trace for an event keyed by an identifier, given as its two
// halves (ids.ID's Hi and Lo) instead of formatted into e.Key, which is not
// read: the event reads back with Key set to the identifier's 32 hex digits.
//
//vet:noalloc
func (r *Registry) TraceID(e Event, hi, lo uint64) {
	if r == nil {
		return
	}
	r.trace.append(&e, true, [2]uint64{hi, lo})
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
