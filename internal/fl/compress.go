package fl

import (
	"math"
	"sort"

	"totoro/internal/wire/codec"
)

// Compressor lossily compresses an update before it is shipped over the
// edge network. Apply returns the reconstruction the receiver would decode
// and the number of bytes the compressed form costs on the wire, which the
// traffic experiments charge instead of the dense size. Application owners
// pick a compressor per application (Broadcast API, Table 2).
//
// Ownership contract: Apply may return v itself (the identity compressor
// does), and the caller treats recon as owned — typically handing it to
// NewAccumOwning, which scales it in place. Callers must therefore pass a
// buffer they own and not reuse v afterwards.
type Compressor interface {
	Name() string
	Apply(v []float64) (recon []float64, wireBytes int)
}

// ApplyOwned is c.Apply on a delta the caller hands over: a v the
// reconstruction does not reuse goes back to the free list at once.
func ApplyOwned(c Compressor, v []float64) ([]float64, int) {
	recon, bytes := c.Apply(v)
	if len(v) > 0 && (len(recon) == 0 || &recon[0] != &v[0]) {
		Recycle(&Accum{WeightedSum: v})
	}
	return recon, bytes
}

// NoCompression ships dense float64s.
type NoCompression struct{}

// Name implements Compressor.
func (NoCompression) Name() string { return "none" }

// Apply implements Compressor. The identity reconstruction returns v
// itself — callers treat the result as owned either way, so the dense
// path skips an O(P) copy per client per round.
func (NoCompression) Apply(v []float64) ([]float64, int) {
	return v, 8 * len(v)
}

// TopK keeps only the K largest-magnitude coordinates (sparsification);
// the wire form is K (index, value) pairs.
type TopK struct{ K int }

// Name implements Compressor.
func (c TopK) Name() string { return "topk" }

// Apply implements Compressor.
func (c TopK) Apply(v []float64) ([]float64, int) {
	k := c.K
	if k >= len(v) || k <= 0 {
		return append([]float64(nil), v...), 8 * len(v)
	}
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		return math.Abs(v[idx[a]]) > math.Abs(v[idx[b]])
	})
	out := make([]float64, len(v))
	for _, i := range idx[:k] {
		out[i] = v[i]
	}
	return out, k * 12 // 4-byte index + 8-byte value
}

// QuantizeInt8 maps every coordinate to a signed 8-bit level of a shared
// absolute-max scale.
type QuantizeInt8 struct{}

// Name implements Compressor.
func (QuantizeInt8) Name() string { return "int8" }

// Apply implements Compressor.
func (QuantizeInt8) Apply(v []float64) ([]float64, int) {
	maxAbs := 0.0
	for _, x := range v {
		if a := math.Abs(x); a > maxAbs {
			maxAbs = a
		}
	}
	out := make([]float64, len(v))
	if maxAbs == 0 {
		return out, len(v) + 8
	}
	scale := maxAbs / 127
	for i, x := range v {
		q := math.Round(x / scale)
		out[i] = q * scale
	}
	return out, len(v) + 8 // one byte per weight + the scale
}

// Float32 ships updates as the codec.Float32s wire type: half the bytes
// of a dense update at float32 precision. Unlike the simulator-only
// compressors above, its wire form is a real codec-v2 encoding, so the
// simulated byte cost and the tcpnet frame size agree exactly.
type Float32 struct{}

// Name implements Compressor.
func (Float32) Name() string { return "f32" }

// Apply implements Compressor.
func (Float32) Apply(v []float64) ([]float64, int) {
	f := codec.PackF32(v)
	return f.Dense(), f.WireSize()
}

// DeltaInt8 ships updates as the codec.QDelta wire type: delta-coded,
// int8-quantized — one byte per coordinate. The reconstruction is the
// receiver's DPCM decode, so simnet training sees exactly what a tcpnet
// receiver would.
type DeltaInt8 struct{}

// Name implements Compressor.
func (DeltaInt8) Name() string { return "delta-int8" }

// Apply implements Compressor.
func (DeltaInt8) Apply(v []float64) ([]float64, int) {
	q := codec.PackQDelta(v)
	return q.Dense(), q.WireSize()
}
