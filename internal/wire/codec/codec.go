// Package codec is Totoro's wire format (v2, the only one): a pooled binary
// codec for every message type the engine sends or journals.
//
// Motivation: the struct is the single description of its own frame.
// Registering a type derives its codec from the declaration once (plan.go):
// reflection builds a list of field offsets and kinds, and encoding, sizing
// and decoding then walk that list with varint headers, little-endian bulk
// copies for float payloads, and append-only buffers recycled through a
// sync.Pool. Per message there is no reflection, and sizing or encoding
// allocates nothing: FrameSize of a pub/sub Multicast or Upstream envelope
// takes about 0.2 µs and EncodeFrame of a 2 410-float update about 4 µs on a
// 2-core Xeon VM. There is no fallback for a type outside the registry: it
// is registered (Register, or RegisterCodec with hand-written functions) or
// encoding it fails.
//
// Wire value layout (see DESIGN.md "Wire format v2" for the full frame):
//
//	value := uvarint(tag) payload
//
// where the payload layout is fixed per tag. Tags are part of the wire
// contract and never reassigned. Tag 0 is reserved — it marked a
// self-describing fallback frame in earlier builds — and decodes, like any
// unknown tag, as ErrMalformed. Tags 1..15 are primitives, 16..63 the
// engine-internal message types, and 64+ (TagApp) are open to applications
// via Register and RegisterCodec.
//
// Registration must happen before the first frame is encoded (package
// init or process setup); the registry is read without locks on the hot
// path.
//
// Decoding is defensive: a malformed or truncated value yields a sticky
// error on the Dec — never a panic — and claimed lengths are bounds-checked
// against the remaining input before any allocation, so a hostile frame
// cannot force a huge allocation.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"slices"
	"sync"

	"totoro/internal/ids"
)

// Wire tags. Stable: these values are the wire contract.
const (
	// 0 is reserved and never registered: earlier builds framed
	// unregistered types under it, so it must stay an unknown tag that
	// Dec.Value rejects.

	tagNil     = 1
	tagBool    = 2
	tagInt     = 3
	tagInt64   = 4
	tagUint64  = 5
	tagFloat64 = 6
	tagString  = 7
	tagBytes   = 8
	tagF64s    = 9
	tagStrMap  = 10
	tagF32s    = 11
	tagQDelta  = 12

	tagEnvelope       = 16
	tagHopAck         = 17
	tagJoinRequest    = 18
	tagJoinReply      = 19
	tagNodeJoined     = 20
	tagLeafsetRequest = 21
	tagLeafsetReply   = 22
	tagPing           = 23
	tagPong           = 24
	tagPSJoin         = 25
	tagPSWelcome      = 26
	tagPSCreate       = 27
	tagPSPublish      = 28
	tagPSMulticast    = 29
	tagPSUpstream     = 30
	tagPSKeepAlive    = 31
	tagPSMcNack       = 32
	tagPSLeave        = 33
	tagMRPacket       = 34
	tagRelayData      = 35
	tagRelayAck       = 36
	tagRelayAdvert    = 37

	// TagApp is the first tag available to RegisterCodec. Tags below it
	// are reserved for the engine.
	TagApp = 64
)

// EncodeFunc appends the payload (no tag) of v to e.
type EncodeFunc func(e *Enc, v any)

// DecodeFunc reads the payload (no tag) of one value from d. On malformed
// input it must set d's error (via the Dec read methods) and may return a
// partial value; it must never panic.
type DecodeFunc func(d *Dec) any

// entry is one registration. A derived codec walks plan; an application
// codec (RegisterCodec) calls enc and dec.
type entry struct {
	tag    uint64
	proto  any
	plan   *plan
	direct bool // pointer-shaped: an interface holds the value in its data word
	word   bool // an 8-byte scalar, decoded without the plan walk
	enc    EncodeFunc
	dec    DecodeFunc
}

// The registry maps concrete types to encoders and tags to decoders.
// Writes are serialized by regMu and must complete before the first
// encode/decode (init-time or process-setup-time); reads are lock-free on
// the hot path.
var (
	regMu    sync.Mutex
	encoders = map[reflect.Type]*entry{}
	decoders = map[uint64]*entry{}
)

// register derives the codec of prototype's concrete type from its
// declaration (plan.go) and installs it under tag. A field no codec can
// carry panics here, naming its path.
func register(tag uint64, prototype any) {
	t := typeOf(prototype)
	pl := derive(t, t.String())
	install(t, &entry{tag: tag, proto: prototype, plan: pl, direct: pointerShaped(t), word: pl.isWord()})
}

// registerPointer lets *T encode under the tag registered for T, in the same
// bytes, by T's plan; the frame decodes as T. Sizing or sending a pointer
// boxes nothing.
func registerPointer(tag uint64, prototype any) {
	t, val := typeOf(prototype), decoders[tag]
	if t.Kind() != reflect.Pointer || val == nil || val.plan == nil || reflect.TypeOf(val.proto) != t.Elem() {
		panic(fmt.Sprintf("codec: %v is not a pointer to the type under tag %d", t, tag))
	}
	install(t, &entry{tag: tag, proto: val.proto, plan: val.plan})
}

// Register installs the codec derived from the declaration of prototype's
// concrete type: its exported fields in declaration order, by the layout
// rule in plan.go. tag must be >= TagApp and process-unique; both endpoints
// must register the same tag for the same type (applications typically
// register alongside totoro.RegisterWire). totoro-vet's wiresafe analyzer
// checks the registered types statically and the certification test
// round-trips them dynamically.
func Register(tag uint64, prototype any) {
	checkAppTag(tag)
	register(tag, prototype)
}

// RegisterCodec installs an application codec with hand-written functions:
// enc writes the payload, dec reads it back, and the value must round-trip
// losslessly. Tag rules are Register's.
func RegisterCodec(tag uint64, prototype any, enc EncodeFunc, dec DecodeFunc) {
	checkAppTag(tag)
	install(typeOf(prototype), &entry{tag: tag, proto: prototype, enc: enc, dec: dec})
}

func checkAppTag(tag uint64) {
	if tag < TagApp {
		panic(fmt.Sprintf("codec: application tag %d is reserved (< TagApp)", tag))
	}
}

func typeOf(prototype any) reflect.Type {
	if prototype == nil {
		panic("codec: register with nil prototype")
	}
	return reflect.TypeOf(prototype)
}

// install makes ent the codec of type t, and its tag's decoder unless t is
// a pointer form (whose entry decodes as the type it points to).
func install(t reflect.Type, ent *entry) {
	regMu.Lock()
	defer regMu.Unlock()
	decodes := t == reflect.TypeOf(ent.proto)
	if _, dup := decoders[ent.tag]; dup && decodes {
		panic(fmt.Sprintf("codec: duplicate tag %d", ent.tag))
	}
	if _, dup := encoders[t]; dup {
		panic(fmt.Sprintf("codec: duplicate codec for type %v", t))
	}
	encoders[t] = ent
	if decodes {
		decoders[ent.tag] = ent
	}
}

// Registered returns a prototype value of every registered type in tag
// order — the corpus the losslessness certification tests round-trip.
//
//lint:ignore unused CertifyLossless's corpus in wire_test.go and this package's tests
func Registered() []any {
	regMu.Lock()
	defer regMu.Unlock()
	tags := make([]uint64, 0, len(decoders))
	for tag := range decoders {
		tags = append(tags, tag)
	}
	slices.Sort(tags)
	out := make([]any, 0, len(tags))
	for _, tag := range tags {
		out = append(out, decoders[tag].proto)
	}
	return out
}

// ---------------------------------------------------------------------------
// Enc: pooled append-only encode buffer.

// Enc is an append-only encode buffer. Obtain with NewEnc, return with
// Free; the backing array is recycled through a sync.Pool so steady-state
// encoding allocates nothing. An Enc must not be used after Free.
//
// An Enc in counting mode (FrameSize) writes nothing: every method adds the
// length it would have appended to n, so the codecs size a value by the
// same walk that encodes it, without reading its slices.
type Enc struct {
	buf      []byte
	err      error
	counting bool
	n        int // bytes counted; counting mode only
}

// maxPooledBuf bounds the capacity of buffers returned to the pool so one
// giant frame does not pin megabytes forever.
const maxPooledBuf = 4 << 20

var encPool = sync.Pool{New: func() any { return &Enc{buf: make([]byte, 0, 1024)} }}

// NewEnc returns an empty encoder from the pool.
func NewEnc() *Enc {
	e := encPool.Get().(*Enc)
	e.Reset()
	return e
}

// Free returns the encoder to the pool.
func (e *Enc) Free() {
	if cap(e.buf) <= maxPooledBuf {
		encPool.Put(e)
	}
}

// Reset empties the buffer, keeping its capacity, and leaves counting mode.
func (e *Enc) Reset() { *e = Enc{buf: e.buf[:0]} }

// Bytes returns the encoded contents. The slice aliases the encoder's
// buffer and is invalidated by the next write, Reset, or Free.
func (e *Enc) Bytes() []byte { return e.buf }

// Len returns the number of encoded (in counting mode: counted) bytes.
func (e *Enc) Len() int { return len(e.buf) + e.n }

// Err returns the first encode error: a value whose type has no codec.
func (e *Enc) Err() error { return e.err }

// grow appends n uninitialized bytes and returns the slice to fill.
//
//vet:noalloc amortized
func (e *Enc) grow(n int) []byte {
	l := len(e.buf)
	e.buf = slices.Grow(e.buf, n)[:l+n]
	return e.buf[l:]
}

// uvarintLen is the number of bytes binary.AppendUvarint writes for x.
//
//vet:noalloc
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// Uvarint appends x in unsigned varint form.
//
//vet:noalloc
func (e *Enc) Uvarint(x uint64) {
	if e.counting {
		e.n += uvarintLen(x)
		return
	}
	e.buf = binary.AppendUvarint(e.buf, x)
}

// Varint appends x in zigzag varint form.
//
//vet:noalloc
func (e *Enc) Varint(x int64) {
	if e.counting {
		e.n += uvarintLen(uint64(x<<1) ^ uint64(x>>63)) // zigzag, as binary.AppendVarint
		return
	}
	e.buf = binary.AppendVarint(e.buf, x)
}

// skip counts a run of n payload bytes in counting mode and reports whether
// it did; the slab writers call it after their length prefix.
//
//vet:noalloc
func (e *Enc) skip(n int) bool {
	if e.counting {
		e.n += n
	}
	return e.counting
}

// Int appends a zigzag varint int.
//
//vet:noalloc
func (e *Enc) Int(x int) { e.Varint(int64(x)) }

// Bool appends one byte.
//
//vet:noalloc
func (e *Enc) Bool(v bool) {
	if e.skip(1) {
		return
	}
	b := byte(0)
	if v {
		b = 1
	}
	e.buf = append(e.buf, b)
}

// Uint64 appends x as 8 little-endian bytes.
//
//vet:noalloc
func (e *Enc) Uint64(x uint64) {
	if e.skip(8) {
		return
	}
	binary.LittleEndian.PutUint64(e.grow(8), x)
}

// Float64 appends the IEEE-754 bits of f as 8 little-endian bytes.
//
//vet:noalloc
func (e *Enc) Float64(f float64) { e.Uint64(math.Float64bits(f)) }

// String appends a uvarint length followed by the bytes of s.
//
//vet:noalloc
func (e *Enc) String(s string) {
	e.Uvarint(uint64(len(s)))
	if e.skip(len(s)) {
		return
	}
	e.buf = append(e.buf, s...)
}

// ByteSlice appends a uvarint length followed by b.
//
//vet:noalloc
func (e *Enc) ByteSlice(b []byte) {
	e.Uvarint(uint64(len(b)))
	if e.skip(len(b)) {
		return
	}
	e.buf = append(e.buf, b...)
}

// Float64s appends a uvarint length followed by the raw little-endian
// bits of v — one bulk copy, no per-element reflection or interface boxing.
//
//vet:noalloc
func (e *Enc) Float64s(v []float64) {
	e.Uvarint(uint64(len(v)))
	if e.skip(8 * len(v)) {
		return
	}
	dst := e.grow(8 * len(v))
	for i, f := range v {
		binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(f))
	}
}

// Float32s appends a uvarint length followed by little-endian float32 bits.
//
//vet:noalloc
func (e *Enc) Float32s(v []float32) {
	e.Uvarint(uint64(len(v)))
	if e.skip(4 * len(v)) {
		return
	}
	dst := e.grow(4 * len(v))
	for i, f := range v {
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(f))
	}
}

// Int8s appends a uvarint length followed by the two's-complement bytes.
//
//vet:noalloc
func (e *Enc) Int8s(v []int8) {
	e.Uvarint(uint64(len(v)))
	if e.skip(len(v)) {
		return
	}
	dst := e.grow(len(v))
	for i, x := range v {
		dst[i] = byte(x)
	}
}

// ID appends a 128-bit identifier as 16 little-endian bytes.
//
//vet:noalloc
func (e *Enc) ID(id ids.ID) {
	e.Uint64(id.Hi)
	e.Uint64(id.Lo)
}

// Value appends the tagged encoding of v by its concrete type's registered
// codec. A type without one writes nothing and fails the encoder.
//
//vet:noalloc
func (e *Enc) Value(v any) {
	if v == nil {
		e.Uvarint(tagNil)
		return
	}
	ent, ok := encoders[reflect.TypeOf(v)]
	if !ok {
		e.noCodec(v)
		return
	}
	e.Uvarint(ent.tag)
	if ent.plan != nil {
		ent.encodeValue(e, v)
		return
	}
	//lint:ignore noalloc application EncodeFuncs (RegisterCodec) are compositions of Enc's noalloc methods; the call graph cannot see through the registry
	ent.enc(e, v)
}

// noCodec records, once, that v's type was never registered. The error is
// sticky and the same in both modes, so EncodeFrame and FrameSize fail
// identically and a transport drops the frame instead of sending part of it.
//
//vet:noalloc cold
func (e *Enc) noCodec(v any) {
	if e.err == nil {
		e.err = fmt.Errorf("codec: no codec registered for %T", v)
	}
}

// ---------------------------------------------------------------------------
// Dec: bounds-checked decode cursor.

// ErrMalformed is the root cause wrapped by all structural decode errors.
var ErrMalformed = errors.New("codec: malformed frame")

// Dec decodes values from one frame body. All read methods are safe on
// malformed input: the first structural violation sets a sticky error and
// every later read returns a zero value.
type Dec struct {
	buf []byte
	off int
	err error
}

// NewDec returns a decoder reading from b (which the caller may recycle
// only after decoding finishes; decoded values never alias b).
func NewDec(b []byte) *Dec { return &Dec{buf: b} }

// Err returns the sticky decode error, if any.
func (d *Dec) Err() error { return d.err }

// Rem returns the number of unread bytes.
func (d *Dec) Rem() int { return len(d.buf) - d.off }

//vet:noalloc cold
func (d *Dec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s at offset %d", ErrMalformed, what, d.off)
	}
}

// take returns the next n bytes (aliasing the input) or fails.
//
//vet:noalloc
func (d *Dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || len(d.buf)-d.off < n {
		d.fail("truncated")
		return nil
	}
	s := d.buf[d.off : d.off+n]
	d.off += n
	return s
}

// Uvarint reads an unsigned varint.
//
//vet:noalloc
func (d *Dec) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	x, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.off += n
	return x
}

// Varint reads a zigzag varint.
//
//vet:noalloc
func (d *Dec) Varint() int64 {
	if d.err != nil {
		return 0
	}
	x, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.off += n
	return x
}

// Int reads a zigzag varint as int.
//
//vet:noalloc
func (d *Dec) Int() int { return int(d.Varint()) }

// Bool reads one byte.
//
//vet:noalloc
func (d *Dec) Bool() bool {
	b := d.take(1)
	return b != nil && b[0] != 0
}

// Uint64 reads 8 little-endian bytes.
//
//vet:noalloc
func (d *Dec) Uint64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Float64 reads 8 little-endian bytes as IEEE-754 bits.
//
//vet:noalloc
func (d *Dec) Float64() float64 { return math.Float64frombits(d.Uint64()) }

// sliceLen reads and validates a claimed element count against the
// remaining input, assuming each element occupies at least elemSize
// bytes; a count that cannot fit fails the decoder. This is what keeps a
// malformed length header from forcing a giant allocation.
//
//vet:noalloc
func (d *Dec) sliceLen(elemSize int) int {
	n := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if n > uint64(d.Rem())/uint64(elemSize) {
		d.fail("length exceeds input")
		return 0
	}
	return int(n)
}

// String reads a length-prefixed string (copying out of the input).
func (d *Dec) String() string {
	n := d.sliceLen(1)
	if n == 0 {
		return ""
	}
	return string(d.take(n))
}

// ByteSlice reads a length-prefixed byte slice (copied; never aliases the
// input, which transports recycle).
func (d *Dec) ByteSlice() []byte {
	n := d.sliceLen(1)
	if n == 0 {
		return nil
	}
	return append([]byte(nil), d.take(n)...)
}

// Float64s reads a length-prefixed little-endian float64 slice.
func (d *Dec) Float64s() []float64 {
	n := d.sliceLen(8)
	if n == 0 {
		return nil
	}
	b := d.take(8 * n)
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// Float32s reads a length-prefixed little-endian float32 slice.
func (d *Dec) Float32s() []float32 {
	n := d.sliceLen(4)
	if n == 0 {
		return nil
	}
	b := d.take(4 * n)
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

// Int8s reads a length-prefixed int8 slice.
func (d *Dec) Int8s() []int8 {
	n := d.sliceLen(1)
	if n == 0 {
		return nil
	}
	b := d.take(n)
	out := make([]int8, n)
	for i := range out {
		out[i] = int8(b[i])
	}
	return out
}

// ID reads a 128-bit identifier.
func (d *Dec) ID() ids.ID {
	return ids.ID{Hi: d.Uint64(), Lo: d.Uint64()}
}

// Value reads one tagged value.
func (d *Dec) Value() any {
	tag := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if tag == tagNil {
		return nil
	}
	ent, ok := decoders[tag]
	if !ok {
		d.fail(fmt.Sprintf("unknown tag %d", tag))
		return nil
	}
	if ent.plan != nil {
		return ent.decodeValue(d)
	}
	return ent.dec(d)
}

// ---------------------------------------------------------------------------
// Primitive registrations: one-field plans.

func init() {
	register(tagBool, false)
	register(tagInt, int(0))
	register(tagInt64, int64(0))
	register(tagUint64, uint64(0))
	register(tagFloat64, float64(0))
	register(tagString, "")
	register(tagBytes, []byte(nil))
	register(tagF64s, []float64(nil))
	register(tagStrMap, map[string]string(nil))
	register(tagF32s, Float32s(nil))
	register(tagQDelta, QDelta{})
}
