package codec

import (
	"testing"

	"totoro/internal/ids"
	"totoro/internal/pubsub"
	"totoro/internal/relay"
	"totoro/internal/ring"
	"totoro/internal/transport"
)

// tagZeroFrame is an address followed by a value under the reserved tag 0,
// with the length and bytes a fallback frame of earlier builds carried.
var tagZeroFrame = []byte{0x01, 'a', 0x00, 0x03, 'g', 'o', 'b'}

// fuzzSeeds are valid frame bodies for a spread of registered types, so
// the fuzzer starts from the real wire grammar and mutates from there.
// checked-in crashers from past fuzzing sessions belong in
// testdata/fuzz/FuzzDecodeFrame (go test stores them there automatically).
func fuzzSeeds() [][]byte {
	id := ids.ID{Hi: 0xfeed, Lo: 0xbeef}
	c := ring.Contact{ID: id, Addr: "node-1:9000"}
	msgs := []any{
		nil,
		true,
		int(-42),
		uint64(1 << 40),
		3.14,
		"hello",
		[]byte{1, 2, 3},
		[]float64{1, -2, 3.5},
		map[string]string{"k": "v"},
		PackF32([]float64{0.25, -0.5}),
		PackQDelta([]float64{0.1, 0.2, 0.15}),
		ring.Envelope{Key: id, Source: c, Hops: 3, Seq: 17, Payload: []float64{9, 8}},
		ring.HopAck{Seq: 17},
		ring.JoinRequest{Joiner: c, Rows: [][]ring.Contact{{c}, nil}, Hops: 1},
		ring.LeafsetReply{From: c, Leafset: []ring.Contact{c, c}},
		pubsub.Multicast{Topic: id, Seq: 5, Depth: 2, Object: "payload"},
		pubsub.Upstream{Topic: id, Round: 7, From: c, Count: 3, Object: []float64{1}},
		&pubsub.Multicast{Topic: id, Epoch: 1, Seq: 6, Depth: 3, Object: []float64{2}},
		&pubsub.Upstream{Topic: id, Round: 8, From: c, Epoch: 1, Count: 4, Seq: 9, Object: "partial"},
		pubsub.McNack{Topic: id, Child: c, Missing: []uint64{4, 5, 6}},
		relay.Data{Dst: "a", Origin: "b", ID: 1, Seq: 2, TTL: 3,
			Visited: []transport.Addr{"a", "b"}, Payload: "x"},
		relay.Advert{From: "a", J: map[transport.Addr]float64{"b": 0.5}},
	}
	var seeds [][]byte
	for _, m := range msgs {
		e := NewEnc()
		if err := EncodeFrame(e, "seed-addr", m); err != nil {
			panic(err)
		}
		seeds = append(seeds, append([]byte(nil), e.Bytes()...))
		e.Free()
	}
	// Deliberately malformed variants: truncations, flipped tag bytes,
	// an absurd length claim, and the reserved tag 0.
	full := seeds[len(seeds)-1]
	seeds = append(seeds,
		full[:len(full)/2],
		full[:1],
		[]byte{},
		[]byte{0x80},                   // unterminated uvarint
		[]byte{0x00, 0x09, 0xFF, 0xFF}, // addr then []float64 claiming a huge length
		tagZeroFrame,
	)
	return seeds
}

// FuzzDecodeFrame asserts the decoder's safety contract on arbitrary
// bytes: it may reject the input, but it must never panic, never
// over-allocate past the input size, and anything it accepts must be
// stable — canonically re-encoding the decoded value and decoding again
// must reproduce the same canonical bytes — and sized by FrameSize at
// exactly its canonical length. (The raw input may differ from
// its canonical form: varints have non-minimal encodings. Comparing
// canonical bytes instead of values also sidesteps DeepEqual-on-NaN,
// since NaN payload bits are legitimate wire values.)
func FuzzDecodeFrame(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		from, msg, err := DecodeFrame(b)
		if err != nil {
			return
		}
		e := NewEnc()
		defer e.Free()
		if err := EncodeFrame(e, from, msg); err != nil {
			t.Fatalf("accepted frame failed to re-encode: %v", err)
		}
		canon := append([]byte(nil), e.Bytes()...)
		if err := checkFrameSize(from, msg); err != nil {
			t.Fatal(err)
		}
		from2, msg2, err := DecodeFrame(canon)
		if err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v", err)
		}
		if from2 != from {
			t.Fatalf("from changed: %q -> %q", from, from2)
		}
		e2 := NewEnc()
		defer e2.Free()
		if err := EncodeFrame(e2, from2, msg2); err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytesEqual(canon, e2.Bytes()) {
			t.Fatalf("canonical encoding not stable for input %x:\n %x\n %x", b, canon, e2.Bytes())
		}
	})
}

// bytesEqual avoids importing bytes just for this.
func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
