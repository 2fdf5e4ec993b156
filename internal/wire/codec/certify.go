package codec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"

	"totoro/internal/transport"
)

// CertifyLossless round-trips randomized instances of every prototype
// through the codec and reports the first value that fails to survive
// encode→decode intact. Registration already refused every field a derived
// codec cannot carry; this proves the registered codecs, hand-written ones
// included, actually carry every exported field. Every instance is also sized: FrameSize must
// count exactly the bytes the encoder writes for it. A type that also goes
// out as a pointer must frame to the same bytes in both forms. Tests call it with
// Registered() — after all registrations, so application types are
// certified too.
//
//lint:ignore unused the losslessness oracle wire_test.go and this package's tests run
func CertifyLossless(prototypes []any, rng *rand.Rand, trials int) error {
	if trials <= 0 {
		trials = 8
	}
	for _, p := range prototypes {
		t := reflect.TypeOf(p)
		for i := 0; i < trials; i++ {
			v := fillValue(t, rng, 3).Interface()
			e := NewEnc()
			e.Value(v)
			if err := e.Err(); err != nil {
				e.Free()
				return fmt.Errorf("certify %v: encode: %w", t, err)
			}
			buf := append([]byte(nil), e.Bytes()...)
			e.Free()
			d := NewDec(buf)
			got := d.Value()
			if err := d.Err(); err != nil {
				return fmt.Errorf("certify %v: decode: %w", t, err)
			}
			if d.Rem() != 0 {
				return fmt.Errorf("certify %v: %d trailing bytes after decode", t, d.Rem())
			}
			if !reflect.DeepEqual(v, got) {
				return fmt.Errorf("certify %v: round-trip mismatch\n sent: %#v\n got:  %#v", t, v, got)
			}
			if err := checkFrameSize("certify-addr", v); err != nil {
				return fmt.Errorf("certify %v: %w", t, err)
			}
			if err := checkPointerForm("certify-addr", v); err != nil {
				return fmt.Errorf("certify %v: %w", t, err)
			}
		}
	}
	return nil
}

// checkFrameSize reports a FrameSize that disagrees with the encoder: the
// counting pass must arrive at the length prefix plus the body EncodeFrame
// writes, and fail exactly when EncodeFrame fails, with the same error.
func checkFrameSize(from transport.Addr, v any) error {
	e := NewEnc()
	defer e.Free()
	encErr := EncodeFrame(e, from, v)
	got, err := FrameSize(from, v)
	if encErr != nil || err != nil {
		if encErr == nil || err == nil || encErr.Error() != err.Error() {
			return fmt.Errorf("FrameSize(%T) error %v, EncodeFrame error %v", v, err, encErr)
		}
		return nil
	}
	n := e.Len()
	if want := len(binary.AppendUvarint(nil, uint64(n))) + n; got != want {
		return fmt.Errorf("FrameSize(%T) = %d, the encoded frame is %d bytes\n value: %.200s", v, got, want, fmt.Sprintf("%#v", v))
	}
	return nil
}

// checkPointerForm reports a pointer form of v's type (registerPointer) whose
// frame is not v's: other bytes, another error, or a FrameSize that
// disagrees with them. A type without a pointer form passes.
func checkPointerForm(from transport.Addr, v any) error {
	t := reflect.TypeOf(v)
	if t == nil {
		return nil
	}
	if _, ok := encoders[reflect.PointerTo(t)]; !ok {
		return nil
	}
	p := reflect.New(t)
	p.Elem().Set(reflect.ValueOf(v))
	ptr := p.Interface()
	ev, ep := NewEnc(), NewEnc()
	defer ev.Free()
	defer ep.Free()
	errV, errP := EncodeFrame(ev, from, v), EncodeFrame(ep, from, ptr)
	if fmt.Sprint(errV) != fmt.Sprint(errP) || !bytes.Equal(ev.Bytes(), ep.Bytes()) {
		return fmt.Errorf("*%v frames %d bytes (error %v), %v %d bytes (error %v)", t, ep.Len(), errP, t, ev.Len(), errV)
	}
	return checkFrameSize(from, ptr)
}

// payloadSamples is what interface-typed fields (message payloads) are
// filled with: it exercises the nested Value path over the primitive tags.
func payloadSamples(rng *rand.Rand) any {
	switch rng.Intn(5) {
	case 0:
		return nil
	case 1:
		return rng.NormFloat64()
	case 2:
		return fmt.Sprintf("payload-%d", rng.Intn(1000))
	case 3:
		return rng.Intn(1 << 20)
	default:
		v := make([]float64, 1+rng.Intn(4))
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
}

// fillValue builds a randomized value of type t. Slices and maps are
// always non-empty (the codec normalizes empty to nil, which DeepEqual
// distinguishes; the nil/empty convention has its own explicit tests).
// Only exported struct fields are populated — unexported fields are not
// part of the wire contract and stay zero on both sides.
func fillValue(t reflect.Type, rng *rand.Rand, depth int) reflect.Value {
	v := reflect.New(t).Elem()
	fillInto(v, rng, depth)
	return v
}

func fillInto(v reflect.Value, rng *rand.Rand, depth int) {
	t := v.Type()
	switch t.Kind() {
	case reflect.Bool:
		v.SetBool(rng.Intn(2) == 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		n := rng.Int63n(1<<16) - 1<<15
		if t.Kind() == reflect.Int8 {
			n = rng.Int63n(256) - 128
		}
		v.SetInt(n)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(rng.Uint64() >> 8)
	case reflect.Float32:
		v.SetFloat(float64(float32(rng.NormFloat64())))
	case reflect.Float64:
		v.SetFloat(rng.NormFloat64())
	case reflect.String:
		v.SetString(fmt.Sprintf("s%x", rng.Uint32()))
	case reflect.Slice:
		n := 1 + rng.Intn(3)
		s := reflect.MakeSlice(t, n, n)
		for i := 0; i < n; i++ {
			if depth > 0 {
				fillInto(s.Index(i), rng, depth-1)
			}
		}
		v.Set(s)
	case reflect.Map:
		n := 1 + rng.Intn(3)
		m := reflect.MakeMapWithSize(t, n)
		for i := 0; i < n; i++ {
			k := fillValue(t.Key(), rng, 0)
			m.SetMapIndex(k, fillValue(t.Elem(), rng, max(depth-1, 0)))
		}
		v.Set(m)
	case reflect.Pointer:
		if depth > 0 {
			p := reflect.New(t.Elem())
			fillInto(p.Elem(), rng, depth-1)
			v.Set(p)
		}
	case reflect.Interface:
		if t.NumMethod() == 0 {
			p := payloadSamples(rng)
			if p != nil {
				v.Set(reflect.ValueOf(p))
			}
		}
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if t.Field(i).IsExported() && depth >= 0 {
				fillInto(v.Field(i), rng, depth-1)
			}
		}
	}
}
