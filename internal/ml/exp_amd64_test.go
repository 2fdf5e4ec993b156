//go:build amd64

package ml

import (
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// expEdges are the inputs on which a copy of math.Exp could part from the
// original: both sides of the bounds at which expSubAVX refuses a group,
// the runtime's overflow, denormal and underflow thresholds, and the
// non-finite values (one NaN with a payload).
var expEdges = []float64{
	0, math.Copysign(0, -1), 1, -1, -56.28938948144715,
	-708, math.Nextafter(-708, 0), math.Nextafter(-708, -1e3),
	709, math.Nextafter(709, 0), math.Nextafter(709, 1e3),
	709.782712893384, 709.7827128933841, 710, -708.3964185322641, -709, -744.44, -745.14, -746,
	math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0xfff8_0000_0000_0bad),
	math.SmallestNonzeroFloat64, -0x1p-1030, math.MaxFloat64, -math.MaxFloat64, 1e300, -1e300,
}

// checkExpSub holds expSub to math.Exp bit for bit on src, into a separate
// destination and in place.
func checkExpSub(t *testing.T, src []float64, sub float64) {
	t.Helper()
	dst := make([]float64, len(src))
	expSub(dst, src, sub)
	inPlace := append([]float64(nil), src...)
	expSub(inPlace, inPlace, sub)
	for j, v := range src {
		want := math.Float64bits(math.Exp(v - sub))
		if got := math.Float64bits(dst[j]); got != want {
			t.Fatalf("exp(%v-%v) at %d of %d: got %#016x want %#016x", v, sub, j, len(src), got, want)
		}
		if got := math.Float64bits(inPlace[j]); got != want {
			t.Fatalf("exp(%v-%v) in place at %d of %d: got %#016x want %#016x", v, sub, j, len(src), got, want)
		}
	}
}

// TestExpSelfCheck: the vector exp is on exactly when the runtime's
// math.Exp takes the FMA branch it copies. CI runs this package once under
// GODEBUG=cpu.fma=off, where the probe must find the difference and every
// test below then runs (and passes) on math.Exp alone.
func TestExpSelfCheck(t *testing.T) {
	if !hasSIMD {
		t.Skip("CPU does not support AVX2+FMA")
	}
	fmaOff := strings.Contains(os.Getenv("GODEBUG"), "cpu.fma=off") || strings.Contains(os.Getenv("GODEBUG"), "cpu.all=off")
	if expExact == fmaOff {
		t.Fatalf("expExact = %v with GODEBUG=%q", expExact, os.Getenv("GODEBUG"))
	}
}

func TestExpAVXMatchesMathExp(t *testing.T) {
	if !hasSIMD {
		t.Skip("CPU does not support AVX2+FMA")
	}
	rng := rand.New(rand.NewSource(37))
	buf := make([]float64, 4096)

	// A million random magnitudes per decade from 1e-3 to 1e2 and as many
	// over the rest of the accepted range, both signs; every other chunk
	// reaches them through a subtraction.
	perDecade := 1 << 20
	if testing.Short() {
		perDecade = 1 << 14
	}
	for _, lo := range []float64{1e-3, 1e-2, 1e-1, 1, 10, 100} {
		for done := 0; done < perDecade; done += len(buf) {
			sub := 0.0
			if done/len(buf)%2 == 1 {
				sub = rng.NormFloat64() * 30
			}
			for i := range buf {
				x := lo * math.Pow(10, rng.Float64())
				if lo == 100 {
					x = 100 + 612*rng.Float64()
				}
				if rng.Intn(2) == 0 {
					x = -x
				}
				buf[i] = x + sub
			}
			checkExpSub(t, buf, sub)
		}
	}

	// Dense sweeps over the refusal bounds and everything the runtime does
	// beyond them: denormal results, underflow to zero, overflow to +Inf.
	for _, sweep := range [][2]float64{{-745, -700}, {700, 710}} {
		step := 1e-4
		if testing.Short() {
			step = 1e-2
		}
		i := 0
		for x := sweep[0]; x <= sweep[1]; x += step {
			buf[i] = x
			if i++; i == len(buf) {
				checkExpSub(t, buf, 0)
				i = 0
			}
		}
		checkExpSub(t, buf[:i], 0)
	}

	// Every edge value in every position of a first, middle and last group,
	// and in the tail, among lanes the vector path accepts.
	for _, e := range expEdges {
		for pos := 0; pos < 15; pos++ {
			src := buf[:15]
			for i := range src {
				src[i] = rng.NormFloat64() * 5
			}
			src[pos] = e
			checkExpSub(t, src, 0)
			src[(pos+5)%15] = e // two refused groups in one call
			checkExpSub(t, src, 0.25)
		}
	}

	// Lengths around the group size and around the softmax head's 62, with
	// an edge value in one lane of four.
	lengths := []int{61, 62, 63, 64}
	for n := 0; n <= 17; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		for rep := 0; rep < 200; rep++ {
			src := buf[:n]
			for i := range src {
				src[i] = rng.NormFloat64() * 20
				if rep%2 == 1 && rng.Intn(4) == 0 {
					src[i] = expEdges[rng.Intn(len(expEdges))]
				}
			}
			checkExpSub(t, src, rng.NormFloat64())
		}
	}
}

// TestExpSubAVXStopsAtRefusedGroup pins the assembly routine's own
// contract: it writes whole groups, stops at the first group with a lane
// outside [-708, 709], reports how far it got and leaves the rest alone.
func TestExpSubAVXStopsAtRefusedGroup(t *testing.T) {
	if !hasSIMD || !expExact {
		t.Skip("vector exp is off")
	}
	const n = 19
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 709.5, -708.5} {
		for at := -1; at < n; at++ {
			src, dst := make([]float64, n), make([]float64, n)
			for i := range src {
				src[i] = float64(i) - 7
				dst[i] = -1
			}
			want := n &^ 3
			if at >= 0 {
				src[at] = bad
				want = min(want, at&^3)
			}
			if got := expSubAVX(&dst[0], &src[0], n, 0); got != want {
				t.Fatalf("bad=%v at %d: wrote %d, want %d", bad, at, got, want)
			}
			for i, v := range dst {
				if i < want && math.Float64bits(v) != math.Float64bits(math.Exp(src[i])) {
					t.Fatalf("bad=%v at %d: dst[%d] = %v, want exp(%v)", bad, at, i, v, src[i])
				}
				if i >= want && v != -1 {
					t.Fatalf("bad=%v at %d: dst[%d] written past the refused group", bad, at, i)
				}
			}
		}
	}
}

// refSoftmax is softmaxInto as it stood before the vector exp: the
// reference both paths must reproduce bit for bit.
func refSoftmax(dst, logits []float64) {
	maxv := logits[0]
	for _, v := range logits[1:] {
		if v > maxv {
			maxv = v
		}
	}
	sum := 0.0
	for i, v := range logits {
		dst[i] = math.Exp(v - maxv)
		sum += dst[i]
	}
	for i := range dst {
		dst[i] /= sum
	}
}

func TestSoftmaxBitExact(t *testing.T) {
	had := hasSIMD
	defer SetSIMD(had)
	rng := rand.New(rand.NewSource(41))
	nan, ninf := math.NaN(), math.Inf(-1)
	for _, simd := range []bool{true, false} {
		if simd && !had {
			continue
		}
		SetSIMD(simd)
		for _, n := range []int{1, 3, 4, 5, 10, 35, 62, 63} {
			for rep := 0; rep < 400; rep++ {
				logits := make([]float64, n)
				// Scales from a trained head's to one whose small logits
				// underflow, so some groups are refused.
				scale := []float64{1, 10, 300, 2000}[rep%4]
				for i := range logits {
					logits[i] = rng.NormFloat64() * scale
				}
				switch rep % 8 {
				case 5:
					logits[rng.Intn(n)] = nan
				case 6:
					logits[rng.Intn(n)] = ninf
				case 7:
					for i := range logits {
						logits[i] = ninf
					}
				}
				want := make([]float64, n)
				refSoftmax(want, logits)
				got := make([]float64, n)
				softmaxInto(got, logits)
				aliased := append([]float64(nil), logits...)
				softmaxInto(aliased, aliased)
				for i := range want {
					w := math.Float64bits(want[i])
					if g, a := math.Float64bits(got[i]), math.Float64bits(aliased[i]); g != w || a != w {
						t.Fatalf("simd=%v n=%d rep=%d i=%d: got %#016x, aliased %#016x, want %#016x",
							simd, n, rep, i, g, a, w)
					}
				}
			}
		}
	}
}

// FuzzExpBits: four lanes of anything, as the only group and followed by a
// tail, must come back as math.Exp's bits.
func FuzzExpBits(f *testing.F) {
	for i := 0; i+4 <= len(expEdges); i++ {
		f.Add(expEdges[i], expEdges[i+1], expEdges[i+2], expEdges[i+3])
	}
	f.Add(0.5, -3.25, 100.0, -700.0)
	f.Fuzz(func(t *testing.T, a, b, c, d float64) {
		checkExpSub(t, []float64{a, b, c, d}, 0)
		checkExpSub(t, []float64{a, b, c, d, d, c, b, a, b, a}, c)
	})
}
