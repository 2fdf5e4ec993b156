package codec

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"totoro/internal/ids"
	"totoro/internal/pubsub"
	"totoro/internal/ring"
	"totoro/internal/transport"
)

// TestCertifyLossless round-trips randomized instances of every registered
// type — the dynamic half of the losslessness contract (wiresafe's static
// check is the other half). Application types registered later (e.g. the
// engine's roundStart/updateAgg) get the same treatment from the root
// package's TestWireCodecLossless.
func TestCertifyLossless(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if err := CertifyLossless(Registered(), rng, 32); err != nil {
		t.Fatal(err)
	}
}

// TestFrameSizeMatchesEncoder covers what the certification corpus does
// not reach: the compressed update encodings at size, nil, Values nested
// in Values, payloads with no codec (top-level and nested: both sides must
// fail), and sender addresses and bodies on either side of a varint length
// boundary. Every Upstream and Multicast is also framed as the pointer a
// sender's free list sends, which must give the same bytes or error.
func TestFrameSizeMatchesEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dense := make([]float64, 32574)
	for i := range dense {
		dense[i] = rng.NormFloat64()
	}
	upstream := func(obj any) any {
		return pubsub.Upstream{Topic: testID(1), Round: 300, From: testContact(2), Epoch: 1 << 40, Count: -3, Seq: 1 << 21, Object: obj}
	}
	cases := []any{
		nil, false, -1, int64(math.MinInt64), uint64(math.MaxUint64), math.Inf(-1), "",
		strings.Repeat("x", 127), strings.Repeat("x", 128), []byte(nil), make([]byte, 1<<14),
		map[string]string{"b": "2", "a": "1", "": strings.Repeat("v", 200)},
		dense, PackF32(dense), PackQDelta(dense), Float32s(nil), QDelta{},
		upstream(nil), upstream(dense), upstream(PackQDelta(dense)),
		ring.Envelope{Key: testID(3), Source: testContact(4), Hops: 2, Seq: 9,
			Payload: pubsub.Multicast{Topic: testID(5), Epoch: 2, Seq: 7, Depth: 3, Object: upstream(PackF32(dense))}},
		unregistered{A: 7, B: "top"},
		ring.Envelope{Key: testID(6), Source: testContact(7), Payload: unregistered{A: 1, B: "nested"}},
		func() {},
		upstream(func() {}),
		upstream(unregistered{A: 2, B: "object"}),
		pubsub.Multicast{Topic: testID(8), Epoch: 1, Seq: 2, Depth: 1, Object: dense},
		pubsub.Multicast{Topic: testID(9), Object: unregistered{A: 3, B: "object"}},
	}
	for _, p := range []any{(*pubsub.Upstream)(nil), (*pubsub.Multicast)(nil)} {
		if _, ok := encoders[reflect.TypeOf(p)]; !ok {
			t.Fatalf("%T has no pointer form", p)
		}
	}
	for _, from := range []transport.Addr{"", "a", transport.Addr(strings.Repeat("h", 130))} {
		for _, v := range cases {
			if err := checkFrameSize(from, v); err != nil {
				t.Error(err)
			}
			if err := checkPointerForm(from, v); err != nil {
				t.Error(err)
			}
		}
	}
	// Bodies of 0..300 bytes walk the frame's own length prefix across the
	// one-to-two-byte boundary.
	for n := 0; n <= 300; n++ {
		if err := checkFrameSize("", make([]byte, n)); err != nil {
			t.Fatal(err)
		}
	}
}

// Sizing the largest frame the engine sends must not allocate, in either
// form.
func TestFrameSizeDoesNotAllocate(t *testing.T) {
	up := pubsub.Upstream{Topic: testID(1), Round: 3, From: testContact(2), Count: 17, Object: make([]float64, 32574)}
	for _, msg := range []any{up, &up} {
		var size int
		allocs := testing.AllocsPerRun(100, func() {
			n, err := FrameSize("10.0.0.9:9000", msg)
			if err != nil {
				t.Fatal(err)
			}
			size = n
		})
		if allocs != 0 {
			t.Fatalf("FrameSize of a 32 574-float %T allocates %.0f times per call, want 0", msg, allocs)
		}
		if size < 8*32574 {
			t.Fatalf("FrameSize = %d, smaller than its own payload", size)
		}
	}
}

func roundTrip(t *testing.T, v any) any {
	t.Helper()
	e := NewEnc()
	defer e.Free()
	e.Value(v)
	if err := e.Err(); err != nil {
		t.Fatalf("encode %T: %v", v, err)
	}
	d := NewDec(e.Bytes())
	got := d.Value()
	if err := d.Err(); err != nil {
		t.Fatalf("decode %T: %v", v, err)
	}
	if d.Rem() != 0 {
		t.Fatalf("decode %T: %d trailing bytes", v, d.Rem())
	}
	return got
}

// Empty slices and maps decode as nil — the codec normalizes them, so a
// sender shipping []float64{} and one shipping nil are indistinguishable.
func TestNilNormalization(t *testing.T) {
	for _, v := range []any{[]float64{}, []byte{}, map[string]string{}, Float32s{}} {
		got := roundTrip(t, v)
		if rv := reflect.ValueOf(got); !rv.IsNil() {
			t.Errorf("%T: empty did not normalize to nil: %#v", v, got)
		}
	}
	if got := roundTrip(t, any(nil)); got != nil {
		t.Errorf("nil round-tripped to %#v", got)
	}
}

// Special float values must survive the little-endian bit copy.
func TestFloatBitPatterns(t *testing.T) {
	v := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64}
	got := roundTrip(t, v).([]float64)
	for i := range v {
		if math.Float64bits(got[i]) != math.Float64bits(v[i]) {
			t.Errorf("index %d: bits %x != %x", i, math.Float64bits(got[i]), math.Float64bits(v[i]))
		}
	}
	// NaN payload bits survive too (DeepEqual can't check NaN, bits can).
	nan := roundTrip(t, []float64{math.NaN()}).([]float64)
	if !math.IsNaN(nan[0]) {
		t.Errorf("NaN decoded as %v", nan[0])
	}
}

// unregistered has no codec.
type unregistered struct {
	A int
	B string
}

// There is no fallback encoding: a value whose type has no codec writes
// nothing and fails the encoder with an error naming the type, and
// FrameSize fails the same way.
func TestUnregisteredTypeFailsEncode(t *testing.T) {
	e := NewEnc()
	defer e.Free()
	e.Value(unregistered{A: 7, B: "x"})
	if e.Err() == nil || !strings.Contains(e.Err().Error(), "no codec registered for codec.unregistered") {
		t.Fatalf("encode error = %v, want one naming codec.unregistered", e.Err())
	}
	if e.Len() != 0 {
		t.Fatalf("a value with no codec wrote %d bytes", e.Len())
	}
	if err := checkFrameSize("a", unregistered{A: 7, B: "x"}); err != nil {
		t.Fatal(err)
	}
}

// A nested payload (Envelope carrying an unregistered struct) fails the
// frame from inside a derived codec, naming the inner type.
func TestNestedUnregisteredPayloadFailsEncode(t *testing.T) {
	msg := ring.Envelope{Key: testID(3), Source: testContact(4), Hops: 2, Seq: 9,
		Payload: unregistered{A: 1, B: "x"}}
	e := NewEnc()
	defer e.Free()
	if err := EncodeFrame(e, "a", msg); err == nil || !strings.Contains(err.Error(), "codec.unregistered") {
		t.Fatalf("encode error = %v, want one naming the nested type", err)
	}
	if err := checkFrameSize("a", msg); err != nil {
		t.Fatal(err)
	}
}

// A payload nothing could encode (function value) fails the encode cleanly
// instead of producing a corrupt frame.
func TestEncodeErrorOnUnencodable(t *testing.T) {
	e := NewEnc()
	defer e.Free()
	e.Value(func() {})
	if e.Err() == nil {
		t.Fatal("encoding a func succeeded")
	}
}

// Tag 0 framed unregistered types in earlier builds. It is rejected like
// any unknown tag, whatever length and bytes follow it.
func TestUnknownTagFails(t *testing.T) {
	e := NewEnc()
	defer e.Free()
	e.Uvarint(63) // reserved, never registered
	d := NewDec(e.Bytes())
	if d.Value(); !errors.Is(d.Err(), ErrMalformed) {
		t.Fatalf("unknown tag: err = %v, want ErrMalformed", d.Err())
	}
	if _, msg, err := DecodeFrame(tagZeroFrame); msg != nil || !errors.Is(err, ErrMalformed) {
		t.Fatalf("tag 0 decoded to %#v, err = %v; want ErrMalformed", msg, err)
	}
}

// A claimed slice length larger than the remaining input must fail before
// allocating, not attempt a huge make().
func TestSliceLenGuard(t *testing.T) {
	e := NewEnc()
	defer e.Free()
	e.Uvarint(tagF64s)
	e.Uvarint(1 << 40) // claims 8 TiB of floats
	d := NewDec(e.Bytes())
	d.Value()
	if !errors.Is(d.Err(), ErrMalformed) {
		t.Fatalf("err = %v, want ErrMalformed", d.Err())
	}
}

// Truncating a valid encoding at every byte boundary yields a clean error
// (or, for a prefix that happens to be self-delimiting, no error) — never
// a panic. The fuzz harness explores the same property on arbitrary bytes.
func TestTruncationIsClean(t *testing.T) {
	e := NewEnc()
	defer e.Free()
	if err := EncodeFrame(e, "addr-1", pubsub.Upstream{
		Topic: testID(1), Round: 3, From: testContact(2), Count: 4,
		Object: []float64{1, 2, 3},
	}); err != nil {
		t.Fatal(err)
	}
	full := e.Bytes()
	for n := 0; n < len(full); n++ {
		if _, _, err := DecodeFrame(full[:n]); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded without error", n, len(full))
		}
	}
	if _, _, err := DecodeFrame(full); err != nil {
		t.Fatalf("full frame failed: %v", err)
	}
	// Trailing garbage is also rejected: frames are consumed exactly.
	if _, _, err := DecodeFrame(append(append([]byte(nil), full...), 0xFF)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

// Sticky error: after the first violation every read returns zero values
// and the error is unchanged.
func TestStickyError(t *testing.T) {
	d := NewDec([]byte{0x80}) // truncated uvarint
	d.Uvarint()
	first := d.Err()
	if first == nil {
		t.Fatal("no error on truncated uvarint")
	}
	if v := d.Float64s(); v != nil {
		t.Fatalf("read after error returned %v", v)
	}
	if d.Err() != first {
		t.Fatalf("error changed: %v -> %v", first, d.Err())
	}
}

func TestEncPoolReuse(t *testing.T) {
	e := NewEnc()
	e.Float64s(make([]float64, 1024))
	e.Free()
	allocs := testing.AllocsPerRun(100, func() {
		e := NewEnc()
		e.Float64s(make([]float64, 8)) // the make is the only allocation
		e.Free()
	})
	if allocs > 1.5 {
		t.Errorf("pooled encode allocates %.1f times per run", allocs)
	}
}

func TestFloat32sPack(t *testing.T) {
	v := []float64{1.5, -2.25, 0, 1e-3}
	f := PackF32(v)
	if f.WireSize() != 8+4*len(v) {
		t.Errorf("WireSize = %d", f.WireSize())
	}
	got := roundTrip(t, f).(Float32s).Dense()
	for i := range v {
		if math.Abs(got[i]-v[i]) > 1e-6*math.Max(1, math.Abs(v[i])) {
			t.Errorf("index %d: %v != %v", i, got[i], v[i])
		}
	}
}

// QDelta's DPCM error feedback keeps reconstruction error bounded by one
// quantization step per coordinate — it must not accumulate along the
// vector.
func TestQDeltaErrorBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	v := make([]float64, 4096)
	walk := 0.0
	for i := range v {
		walk += rng.NormFloat64() * 0.01
		v[i] = walk
	}
	q := PackQDelta(v)
	if q.WireSize() != 16+len(v) {
		t.Errorf("WireSize = %d", q.WireSize())
	}
	got := roundTrip(t, q).(QDelta).Dense()
	for i := range v {
		if math.Abs(got[i]-v[i]) > q.Scale {
			t.Fatalf("index %d: |%v - %v| = %v > scale %v (error accumulated)",
				i, got[i], v[i], math.Abs(got[i]-v[i]), q.Scale)
		}
	}
	// Degenerate inputs.
	if d := PackQDelta(nil).Dense(); len(d) != 0 {
		t.Errorf("nil pack decoded to %v", d)
	}
	zero := PackQDelta(make([]float64, 5))
	if d := zero.Dense(); len(d) != 5 || d[0] != 0 {
		t.Errorf("zero pack decoded to %v", d)
	}
}

func TestRegisterCodecRejectsReservedTag(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RegisterCodec accepted a reserved tag")
		}
	}()
	RegisterCodec(5, struct{ X int }{}, nil, nil)
}

func TestRegisteredInTagOrder(t *testing.T) {
	protos := Registered()
	if len(protos) < 20 {
		t.Fatalf("only %d registered types", len(protos))
	}
	// Tag order puts primitives first: bool is tag 2, the lowest.
	if _, ok := protos[0].(bool); !ok {
		t.Errorf("first registered prototype is %T, want bool", protos[0])
	}
}

func TestDeterministicEncoding(t *testing.T) {
	m := map[string]string{"z": "1", "a": "2", "m": "3"}
	var prev string
	for i := 0; i < 8; i++ {
		e := NewEnc()
		e.Value(m)
		cur := string(e.Bytes())
		e.Free()
		if i > 0 && cur != prev {
			t.Fatal("map encoding is nondeterministic")
		}
		prev = cur
	}
}

func testID(n uint64) ids.ID { return ids.ID{Hi: n, Lo: n * 31} }

func testContact(n uint64) ring.Contact {
	return ring.Contact{ID: testID(n), Addr: transport.Addr(strings.Repeat("n", int(n%3)+1))}
}

// A field no plan can carry panics at registration, naming its path from
// the registered type.
func TestDeriveRejectsWhatNoCodecCarries(t *testing.T) {
	type hidden struct{ a, b int }
	for _, tc := range []struct {
		proto any
		want  string
	}{
		{struct{ F func() }{}, "x.F has type func()"},
		{struct{ C []chan int }{}, "x.C[] has type chan int"},
		{struct{ E error }{}, "x.E is the non-empty interface error"},
		{struct{ N int32 }{}, "x.N has type int32"},
		{struct{ M map[int]string }{}, "x.M is a map keyed by int"},
		{struct{ H *hidden }{}, "x.H is a codec.hidden, whose fields are all unexported"},
		{struct{ Z []struct{} }{}, "x.Z is a slice of struct {}, which encodes in zero bytes"},
	} {
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, tc.want) {
					t.Errorf("deriving %T panicked with %q, want %q", tc.proto, msg, tc.want)
				}
			}()
			derive(reflect.TypeOf(tc.proto), "x")
		}()
	}
}
