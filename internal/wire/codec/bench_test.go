package codec

import (
	"testing"

	"totoro/internal/ids"
	"totoro/internal/pubsub"
	"totoro/internal/ring"
)

// Benchmarks of wire v2 on the three frame shapes that dominate engine
// traffic: a small control message, a dense 10k-float model update, and the
// compressed update encodings.

func benchControlMsg() any {
	return ring.Envelope{
		Key:    ids.ID{Hi: 1, Lo: 2},
		Source: ring.Contact{ID: ids.ID{Hi: 3, Lo: 4}, Addr: "10.0.0.1:9000"},
		Hops:   3, Seq: 1234,
		Payload: pubsub.JoinMsg{Topic: ids.ID{Hi: 5, Lo: 6},
			Subscriber: ring.Contact{ID: ids.ID{Hi: 7, Lo: 8}, Addr: "10.0.0.2:9000"}},
	}
}

func benchUpdateMsg(n int) (any, []float64) {
	params := make([]float64, n)
	for i := range params {
		params[i] = float64(i%97) * 0.013
	}
	return pubsub.Upstream{
		Topic: ids.ID{Hi: 9, Lo: 10}, Round: 42,
		From:  ring.Contact{ID: ids.ID{Hi: 11, Lo: 12}, Addr: "10.0.0.3:9000"},
		Count: 17, Object: params,
	}, params
}

const benchAddr = "10.0.0.9:9000"

func benchCodecEncode(b *testing.B, msg any) {
	b.ReportAllocs()
	var n int64
	for i := 0; i < b.N; i++ {
		e := NewEnc()
		if err := EncodeFrame(e, benchAddr, msg); err != nil {
			b.Fatal(err)
		}
		n += int64(e.Len())
		e.Free()
	}
	b.SetBytes(n / int64(b.N))
}

func benchCodecDecode(b *testing.B, msg any) {
	e := NewEnc()
	defer e.Free()
	if err := EncodeFrame(e, benchAddr, msg); err != nil {
		b.Fatal(err)
	}
	buf := append([]byte(nil), e.Bytes()...)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeFrame(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// benchFrameSize times what simnet pays per Send under ExactSizes.
func benchFrameSize(b *testing.B, msg any) {
	b.ReportAllocs()
	b.ResetTimer() // the caller built msg on the clock
	var n int
	for i := 0; i < b.N; i++ {
		size, err := FrameSize(benchAddr, msg)
		if err != nil {
			b.Fatal(err)
		}
		n += size
	}
	b.SetBytes(int64(n / b.N))
}

func BenchmarkFrameSizeControl(b *testing.B) { benchFrameSize(b, benchControlMsg()) }

// A 261 KB frame, the bigmodel-1k update: sizing it costs what sizing the
// control message costs.
func BenchmarkFrameSizeUpdate(b *testing.B) {
	m, _ := benchUpdateMsg(32574)
	benchFrameSize(b, m)
}

func BenchmarkEncodeControl_Codec(b *testing.B) { benchCodecEncode(b, benchControlMsg()) }
func BenchmarkDecodeControl_Codec(b *testing.B) { benchCodecDecode(b, benchControlMsg()) }

func BenchmarkEncodeUpdate10k_Codec(b *testing.B) {
	m, _ := benchUpdateMsg(10000)
	benchCodecEncode(b, m)
}

func BenchmarkDecodeUpdate10k_Codec(b *testing.B) {
	m, _ := benchUpdateMsg(10000)
	benchCodecDecode(b, m)
}

func BenchmarkEncodeUpdate10k_F32(b *testing.B) {
	_, params := benchUpdateMsg(10000)
	benchCodecEncode(b, PackF32(params))
}

func BenchmarkEncodeUpdate10k_QDelta(b *testing.B) {
	_, params := benchUpdateMsg(10000)
	benchCodecEncode(b, PackQDelta(params))
}

func BenchmarkPackQDelta10k(b *testing.B) {
	_, params := benchUpdateMsg(10000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		PackQDelta(params)
	}
}
