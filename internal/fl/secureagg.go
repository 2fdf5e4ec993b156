package fl

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
)

// Secure aggregation (paper §4.4: owners may specify "secure aggregation"
// as their privacy technique). This is the classic pairwise-masking
// scheme: every ordered pair of participants (i, j) derives a shared mask
// vector from a common secret; client i adds the mask, client j subtracts
// it, so the masks cancel exactly in the sum and the server (or the
// aggregation tree) only ever sees masked vectors. The shared secret here
// is derived deterministically from the two participants' IDs and the
// round — a stand-in for a Diffie-Hellman agreement that keeps the
// arithmetic (and its cancellation property) exact.

// maskScale quantizes mask values so that float addition and subtraction
// cancel exactly (each mask component is a multiple of 2^-20).
const maskScale = 1 << 20

// PairwiseMaskScaled derives the deterministic mask vector shared by
// clients a and b for one round, with components in [-amplitude,
// amplitude). It is antisymmetric — swapping a and b negates it — which is
// what makes masks cancel in the sum. Pick an amplitude well above the
// magnitude of the protected values so a single masked vector reveals
// nothing; use a power of two to keep the float cancellation exact.
func PairwiseMaskScaled(a, b string, round, dim int, amplitude float64) []float64 {
	sign := 1.0
	if a > b {
		a, b = b, a
		sign = -1
	}
	out := make([]float64, dim)
	var counter uint64
	var block [32]byte
	for i := 0; i < dim; i++ {
		if i%4 == 0 {
			h := sha256.New()
			fmt.Fprintf(h, "%s|%s|%d|%d", a, b, round, counter)
			h.Sum(block[:0])
			counter++
		}
		v := binary.LittleEndian.Uint64(block[(i%4)*8:])
		// Uniform in [-1, 1), quantized so +mask + (-mask) cancels exactly.
		q := int64(v%(2*maskScale)) - maskScale
		out[i] = sign * float64(q) / maskScale * amplitude
	}
	return out
}

// MaskUpdateScaled masks client self's update against every other
// participant in the round with masks of the given amplitude. The
// participant list must be identical (as a set) across all clients of the
// round.
func MaskUpdateScaled(self string, participants []string, round int, delta []float64, amplitude float64) []float64 {
	out := append([]float64(nil), delta...)
	for _, p := range participants {
		if p == self {
			continue
		}
		m := PairwiseMaskScaled(self, p, round, len(delta), amplitude)
		for i := range out {
			out[i] += m[i]
		}
	}
	return out
}
