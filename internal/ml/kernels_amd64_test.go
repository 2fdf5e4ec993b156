//go:build amd64

package ml

import (
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"
)

// TestSIMDKernelsMatchScalar runs the full batched backprop with the AVX2
// kernels and again with the portable scalar kernels and checks the
// results agree to floating-point reassociation tolerance. This is the
// direct correctness check for kernels_amd64.s.
func TestSIMDKernelsMatchScalar(t *testing.T) {
	if !hasSIMD {
		t.Skip("CPU does not support AVX2+FMA")
	}
	defer func() { hasSIMD = true }()
	rng := rand.New(rand.NewSource(23))
	cases := []struct {
		sizes []int
		n     int
	}{
		{[]int{64, 48, 62}, 20},
		{[]int{33, 21, 11}, 7}, // odd widths exercise every kernel tail
		{[]int{5, 3}, 2},       // below the vector width
	}
	for _, tc := range cases {
		m, X, Y := randomBatch(tc.sizes, tc.n, rng)

		hasSIMD = true
		gSIMD := newGrads(m.Sizes)
		lossSIMD := m.BackwardWS(X, Y, gSIMD, NewWorkspace())

		hasSIMD = false
		gScalar := newGrads(m.Sizes)
		lossScalar := m.BackwardWS(X, Y, gScalar, NewWorkspace())
		hasSIMD = true

		if d := relDiff(lossSIMD, lossScalar); d > 1e-12 {
			t.Errorf("sizes=%v n=%d: loss simd=%v scalar=%v (rel %g)", tc.sizes, tc.n, lossSIMD, lossScalar, d)
		}
		for l := range gSIMD.W {
			for i := range gSIMD.W[l] {
				if d := relDiff(gSIMD.W[l][i], gScalar.W[l][i]); d > 1e-12 {
					t.Fatalf("sizes=%v n=%d: gW[%d][%d] simd=%v scalar=%v (rel %g)", tc.sizes, tc.n, l, i, gSIMD.W[l][i], gScalar.W[l][i], d)
				}
			}
			for i := range gSIMD.B[l] {
				if d := relDiff(gSIMD.B[l][i], gScalar.B[l][i]); d > 1e-12 {
					t.Fatalf("sizes=%v n=%d: gB[%d][%d] simd=%v scalar=%v (rel %g)", tc.sizes, tc.n, l, i, gSIMD.B[l][i], gScalar.B[l][i], d)
				}
			}
		}
	}
}

// TestSIMDKernelUnits checks each assembly kernel against its scalar
// counterpart on ragged lengths that hit the 16-, 8-, 4-wide and scalar
// tail paths.
func TestSIMDKernelUnits(t *testing.T) {
	if !hasSIMD {
		t.Skip("CPU does not support AVX2+FMA")
	}
	defer func() { hasSIMD = true }()
	rng := rand.New(rand.NewSource(29))
	fill := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	for _, n := range []int{1, 3, 4, 5, 7, 8, 11, 16, 17, 37, 62, 64} {
		stride := n + rng.Intn(3)
		x := fill(8 * stride)
		y0 := fill(n)
		y1 := append([]float64(nil), y0...)
		var c8 [8]float64
		copy(c8[:], fill(8))
		c4 := (*[4]float64)(c8[:4])

		hasSIMD = true
		axpy(c8[0], x[:n], y0)
		hasSIMD = false
		axpy(c8[0], x[:n], y1)
		hasSIMD = true
		for j := range y0 {
			if d := relDiff(y0[j], y1[j]); d > 1e-13 {
				t.Fatalf("axpy n=%d j=%d: simd=%v scalar=%v", n, j, y0[j], y1[j])
			}
		}

		y0 = fill(n)
		y1 = append([]float64(nil), y0...)
		hasSIMD = true
		axpyN4(c4, x, stride, y0)
		hasSIMD = false
		axpyN4(c4, x, stride, y1)
		hasSIMD = true
		for j := range y0 {
			if d := relDiff(y0[j], y1[j]); d > 1e-13 {
				t.Fatalf("axpyN4 n=%d j=%d: simd=%v scalar=%v", n, j, y0[j], y1[j])
			}
		}

		y0 = fill(n)
		y1 = append([]float64(nil), y0...)
		hasSIMD = true
		axpyN8(&c8, x, stride, y0)
		hasSIMD = false
		axpyN8(&c8, x, stride, y1)
		hasSIMD = true
		for j := range y0 {
			if d := relDiff(y0[j], y1[j]); d > 1e-13 {
				t.Fatalf("axpyN8 n=%d j=%d: simd=%v scalar=%v", n, j, y0[j], y1[j])
			}
		}

		d := fill(n)
		dst0 := make([]float64, 4)
		dst1 := make([]float64, 4)
		hasSIMD = true
		dotN4(d, x, stride, dst0)
		hasSIMD = false
		dotN4(d, x, stride, dst1)
		hasSIMD = true
		for j := range dst0 {
			if dd := relDiff(dst0[j], dst1[j]); dd > 1e-13 {
				t.Fatalf("dotN4 n=%d t=%d: simd=%v scalar=%v", n, j, dst0[j], dst1[j])
			}
		}
	}
}

// TestLayerPassKernels: one layer-pass call equals its single-pass kernel
// run once per step bit for bit, and the scalar loop to rounding, and
// writes nothing between the rows it steps over — for every n % 8, 0–9
// steps, and operands spaced wider than they need. The axpy passes add to
// y in place, to a row of zeros over NaN-filled rows of y (the zero-start
// form), and to rows of a third operand, each against the single passes on
// y's rows set to what they add to.
func TestLayerPassKernels(t *testing.T) {
	if !hasSIMD {
		t.Skip("CPU does not support AVX2+FMA")
	}
	defer func() { hasSIMD = true }()
	rng := rand.New(rand.NewSource(43))
	fill := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	// check runs pass (the layer-pass call) with the AVX kernels and with
	// the scalar ones, and steps (the single-pass calls) with the AVX
	// kernels, each on its own copy of out.
	check := func(name string, n, count int, out []float64, pass, steps func(out []float64)) {
		t.Helper()
		fused, single, scalar := slices.Clone(out), slices.Clone(out), slices.Clone(out)
		hasSIMD = true
		pass(fused)
		steps(single)
		hasSIMD = false
		pass(scalar)
		hasSIMD = true
		for j := range fused {
			if math.Float64bits(fused[j]) != math.Float64bits(single[j]) {
				t.Fatalf("%s n=%d count=%d [%d]: layer pass %v, single passes %v", name, n, count, j, fused[j], single[j])
			}
			if d := relDiff(fused[j], scalar[j]); d > 1e-13 {
				t.Fatalf("%s n=%d count=%d [%d]: simd %v, scalar %v", name, n, count, j, fused[j], scalar[j])
			}
		}
	}
	for n := 1; n <= 20; n++ {
		for count := 0; count <= 9; count++ {
			stride := n + rng.Intn(3)
			x := fill(8 * stride)
			ystep := n + rng.Intn(3)
			y := fill(count*ystep + n)
			stale := slices.Repeat([]float64{math.NaN()}, len(y))
			astep := n + rng.Intn(3)
			other := fill(count*astep + n)
			for _, rows := range []int{4, 8} {
				cstep := rows + rng.Intn(3)
				c := fill(count*cstep + rows)
				for _, form := range []struct {
					name string
					a    []float64 // nil: y itself
					step int
					out  []float64
				}{{"in place", nil, ystep, y}, {"from zeros", make([]float64, n), 0, stale}, {"from a", other, astep, y}} {
					check("axpy rows="+strconv.Itoa(rows)+" "+form.name, n, count, form.out, func(y []float64) {
						a := form.a
						if a == nil {
							a = y
						}
						if rows == 4 {
							axpyN4Loop(c, cstep, x, stride, a, form.step, y, ystep, n, count)
						} else {
							axpyN8Loop(c, cstep, x, stride, a, form.step, y, ystep, n, count)
						}
					}, func(y []float64) {
						for k := range count {
							yk := y[k*ystep : k*ystep+n]
							if form.a != nil {
								copy(yk, form.a[k*form.step:])
							}
							if rows == 4 {
								axpyN4((*[4]float64)(c[k*cstep:]), x, stride, yk)
							} else {
								axpyN8((*[8]float64)(c[k*cstep:]), x, stride, yk)
							}
						}
					})
				}
			}
			dstep, dststep := n+rng.Intn(3), 4+rng.Intn(3)
			d := fill(count*dstep + n)
			dst := fill(count*dststep + 4)
			check("dotN4", n, count, dst, func(dst []float64) {
				dotN4Loop(d, dstep, x, stride, dst, dststep, n, count)
			}, func(dst []float64) {
				for k := range count {
					dotN4(d[k*dstep:k*dstep+n], x, stride, dst[k*dststep:k*dststep+4])
				}
			})
		}
	}
}

// TestElementwiseKernelsBitExact holds the element-wise kernels to
// their scalar loops bit for bit: every length that mixes the 4-wide body
// with the scalar tail, and in every operand the values on which a reordered
// operand or a fused multiply-add would show — NaNs of two payloads, ±0,
// ±Inf, denormals, and magnitudes whose products round.
func TestElementwiseKernelsBitExact(t *testing.T) {
	if !hasSIMD {
		t.Skip("CPU does not support AVX2+FMA")
	}
	defer func() { hasSIMD = true }()
	specials := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.NaN(), math.Float64frombits(0xfff8_0000_0000_0bad),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030, -0x1p-1030,
		math.MaxFloat64, -math.MaxFloat64, 1, -1, 1 + 0x1p-52, 0.1, -1e-3,
	}
	rng := rand.New(rand.NewSource(31))
	// fill draws half of the entries from specials, the rest normal.
	fill := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			if rng.Intn(2) == 0 {
				v[i] = specials[rng.Intn(len(specials))]
			} else {
				v[i] = rng.NormFloat64()
			}
		}
		return v
	}
	// both runs f on the SIMD and on the scalar path over copies of the
	// operands and compares every one of them afterwards.
	both := func(name string, n int, f func(v [][]float64), operands ...[]float64) {
		t.Helper()
		clone := func() [][]float64 {
			out := make([][]float64, len(operands))
			for i, o := range operands {
				out[i] = append([]float64(nil), o...)
			}
			return out
		}
		simd, scalar := clone(), clone()
		hasSIMD = true
		f(simd)
		hasSIMD = false
		f(scalar)
		hasSIMD = true
		for i := range simd {
			for j := range simd[i] {
				if a, b := math.Float64bits(simd[i][j]), math.Float64bits(scalar[i][j]); a != b {
					t.Fatalf("%s n=%d operand %d j=%d: simd %#016x (%v) scalar %#016x (%v)",
						name, n, i, j, a, simd[i][j], b, scalar[i][j])
				}
			}
		}
	}
	lengths := []int{255, 256, 257}
	for n := 0; n <= 17; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		// Enough draws that two different NaNs meet in the scalar tail.
		for rep := 0; rep < 200; rep++ {
			hyper := []float64{0.1, 0.5, 1e-4}
			if rep%4 == 3 {
				hyper = fill(3) // specials reach lr, momentum and weight decay too
			}
			both("sgdStep", n, func(v [][]float64) {
				sgdStep(v[0], v[1], v[2], hyper[0], hyper[1], hyper[2])
			}, fill(n), fill(n), fill(n))
			both("reluClamp", n, func(v [][]float64) { reluClamp(v[0]) }, fill(n))
			both("reluGate", n, func(v [][]float64) { reluGate(v[0], v[1]) }, fill(n), fill(n))
			both("Scale", n, func(v [][]float64) { Scale(v[1][0], v[0]) }, fill(n), fill(1))
		}
	}
}

// TestBackwardZeroStart: BackwardWS overwrites its gradients. Into
// NaN-filled buffers it computes what it computes into cleared ones, bit
// for bit, at every batch size from 1 to 25 — every mix of 8-blocks, the
// 4-block and single examples — on both paths, including layers narrower
// than a vector.
func TestBackwardZeroStart(t *testing.T) {
	if !hasSIMD {
		t.Skip("CPU does not support AVX2+FMA")
	}
	defer func() { hasSIMD = true }()
	rng := rand.New(rand.NewSource(47))
	for _, sizes := range [][]int{{64, 48, 62}, {9, 7, 3}, {5, 3}} {
		for n := 1; n <= 25; n++ {
			m, X, Y := randomBatch(sizes, n, rng)
			for _, simd := range []bool{true, false} {
				hasSIMD = simd
				ws := NewWorkspace()
				stale := newGrads(sizes)
				for _, v := range append(stale.W, stale.B...) {
					for i := range v {
						v[i] = math.NaN()
					}
				}
				m.BackwardWS(X, Y, stale, ws)
				cleared := newGrads(sizes)
				m.BackwardWS(X, Y, cleared, ws)
				got := stale.Flat()
				for i, v := range cleared.Flat() {
					if math.Float64bits(got[i]) != math.Float64bits(v) {
						t.Fatalf("sizes %v n=%d simd=%v: gradient %d is %v from NaN-filled buffers, %v from cleared ones", sizes, n, simd, i, got[i], v)
					}
				}
			}
		}
	}
}
