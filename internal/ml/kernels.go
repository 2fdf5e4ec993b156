package ml

import "math"

// Kernels for the training hot path. Each public kernel dispatches to an
// AVX2+FMA assembly implementation on amd64 CPUs that support it (see
// kernels_amd64.s) and otherwise to the portable scalar form below. The
// scalar forms unroll with independent accumulators so the CPU can overlap
// floating-point latencies; Go does not auto-vectorize, so on the fallback
// path instruction-level parallelism is where the throughput comes from.
//
// The N-row variants operate on groups of adjacent matrix rows (x is the
// first row, subsequent rows start at multiples of stride) so one pass
// over y amortizes its load/store traffic across 4 or 8 input rows — the
// difference between the memory-bound per-example backprop and the
// compute-bound batched form.

// axpy computes y[j] += a*x[j] over the common length of x and y.
//
//vet:noalloc
func axpy(a float64, x, y []float64) {
	n := len(x)
	y = y[:n]
	if hasSIMD && n >= 4 {
		axpyAVX(a, &x[0], &y[0], n)
		return
	}
	j := 0
	for ; j+4 <= n; j += 4 {
		y[j] += a * x[j]
		y[j+1] += a * x[j+1]
		y[j+2] += a * x[j+2]
		y[j+3] += a * x[j+3]
	}
	for ; j < n; j++ {
		y[j] += a * x[j]
	}
}

// axpyN4 computes y[j] += Σ_t c[t]*x[t*stride+j]: four fused axpys over
// adjacent rows that load and store each y element once instead of four
// times.
//
//vet:noalloc
func axpyN4(c *[4]float64, x []float64, stride int, y []float64) {
	n := len(y)
	_ = x[3*stride+n-1]
	if hasSIMD && n >= 4 {
		axpy4LoopAVX(&c[0], 0, &x[0], stride, &y[0], 0, &y[0], 0, n, 1)
		return
	}
	x0, x1 := x[:n], x[stride:stride+n]
	x2, x3 := x[2*stride:2*stride+n], x[3*stride:3*stride+n]
	for j := 0; j < n; j++ {
		y[j] += c[0]*x0[j] + c[1]*x1[j] + c[2]*x2[j] + c[3]*x3[j]
	}
}

// axpyN8 computes y[j] += Σ_t c[t]*x[t*stride+j] over eight adjacent rows.
//
//vet:noalloc
func axpyN8(c *[8]float64, x []float64, stride int, y []float64) {
	n := len(y)
	_ = x[7*stride+n-1]
	if hasSIMD && n >= 4 {
		axpy8LoopAVX(&c[0], 0, &x[0], stride, &y[0], 0, &y[0], 0, n, 1)
		return
	}
	var c0, c1 [4]float64
	copy(c0[:], c[:4])
	copy(c1[:], c[4:])
	axpyN4(&c0, x, stride, y)
	axpyN4(&c1, x[4*stride:], stride, y)
}

// dotN4 computes dst[t] = Σ_j w[t*stride+j]*d[j] for t in 0..3: four dot
// products of d against adjacent rows of w, sharing one pass over d.
//
//vet:noalloc
func dotN4(d []float64, w []float64, stride int, dst []float64) {
	n := len(d)
	_ = w[3*stride+n-1]
	_ = dst[3]
	if hasSIMD && n >= 4 {
		dot4LoopAVX(&d[0], 0, &w[0], stride, &dst[0], 0, n, 1)
		return
	}
	w0, w1 := w[:n], w[stride:stride+n]
	w2, w3 := w[2*stride:2*stride+n], w[3*stride:3*stride+n]
	var s0, s1, s2, s3 float64
	for j := 0; j < n; j++ {
		dj := d[j]
		s0 += w0[j] * dj
		s1 += w1[j] * dj
		s2 += w2[j] * dj
		s3 += w3[j] * dj
	}
	dst[0], dst[1], dst[2], dst[3] = s0, s1, s2, s3
}

// The layer-pass forms below run their single-pass kernel count times,
// the k-th time on c, y (d, dst) moved on by k steps and on the same rows
// x (w): on the AVX path in one kernel call, otherwise one single-pass call
// each. Either way every element is computed as the single pass computes
// it. The axpy forms add to rows of a: y itself (astep = ystep) to
// accumulate, or a row of zeros (astep 0) to store what the single pass
// computes on a cleared y, whatever y holds.

// axpyN4Loop computes y[k*ystep+j] = a[k*astep+j] + Σ_t c[k*cstep+t]*x[t*stride+j]
// for j in [0, n), k in [0, count): axpyN4 count times, on y rows set to a's.
//
//vet:noalloc
func axpyN4Loop(c []float64, cstep int, x []float64, stride int, a []float64, astep int, y []float64, ystep, n, count int) {
	if count == 0 || n == 0 {
		return
	}
	_ = c[(count-1)*cstep+3]
	_ = x[3*stride+n-1]
	_ = a[(count-1)*astep+n-1]
	_ = y[(count-1)*ystep+n-1]
	if hasSIMD && n >= 4 {
		axpy4LoopAVX(&c[0], cstep, &x[0], stride, &a[0], astep, &y[0], ystep, n, count)
		return
	}
	for k := 0; k < count; k++ {
		yk := y[k*ystep : k*ystep+n]
		copy(yk, a[k*astep:k*astep+n])
		axpyN4((*[4]float64)(c[k*cstep:]), x, stride, yk)
	}
}

// axpyN8Loop is axpyN4Loop over eight rows: axpyN8 count times.
//
//vet:noalloc
func axpyN8Loop(c []float64, cstep int, x []float64, stride int, a []float64, astep int, y []float64, ystep, n, count int) {
	if count == 0 || n == 0 {
		return
	}
	_ = c[(count-1)*cstep+7]
	_ = x[7*stride+n-1]
	_ = a[(count-1)*astep+n-1]
	_ = y[(count-1)*ystep+n-1]
	if hasSIMD && n >= 4 {
		axpy8LoopAVX(&c[0], cstep, &x[0], stride, &a[0], astep, &y[0], ystep, n, count)
		return
	}
	for k := 0; k < count; k++ {
		yk := y[k*ystep : k*ystep+n]
		copy(yk, a[k*astep:k*astep+n])
		axpyN8((*[8]float64)(c[k*cstep:]), x, stride, yk)
	}
}

// dotN4Loop computes dst[k*dststep+t] = Σ_j w[t*stride+j]*d[k*dstep+j] for
// j in [0, n), t in 0..3, k in [0, count): dotN4 count times.
//
//vet:noalloc
func dotN4Loop(d []float64, dstep int, w []float64, stride int, dst []float64, dststep, n, count int) {
	if count == 0 || n == 0 {
		return
	}
	_ = d[(count-1)*dstep+n-1]
	_ = w[3*stride+n-1]
	_ = dst[(count-1)*dststep+3]
	if hasSIMD && n >= 4 {
		dot4LoopAVX(&d[0], dstep, &w[0], stride, &dst[0], dststep, n, count)
		return
	}
	for k := 0; k < count; k++ {
		dotN4(d[k*dstep:k*dstep+n], w, stride, dst[k*dststep:k*dststep+4])
	}
}

// dot computes the inner product of x and y.
//
//vet:noalloc
func dot(x, y []float64) float64 {
	n := len(x)
	y = y[:n]
	var s0, s1, s2, s3 float64
	j := 0
	for ; j+4 <= n; j += 4 {
		s0 += x[j] * y[j]
		s1 += x[j+1] * y[j+1]
		s2 += x[j+2] * y[j+2]
		s3 += x[j+3] * y[j+3]
	}
	for ; j < n; j++ {
		s0 += x[j] * y[j]
	}
	return (s0 + s1) + (s2 + s3)
}

// The element-wise kernels below do no multiply-add fusing on either path
// (expSub fuses exactly where math.Exp does), so unlike the kernels above
// their AVX and scalar forms agree bit for bit (NaN payloads and signed
// zeros included); the explicit float64 conversions keep the compiler from
// fusing the scalar form where it may.

// sgdStep applies one momentum/weight-decay update to a parameter slice:
// gi = g + wd·p; vel ← mom·vel − lr·gi; p ← p + vel.
//
//vet:noalloc
func sgdStep(p, g, vel []float64, lr, mom, wd float64) {
	n := len(p)
	g, vel = g[:n], vel[:n]
	if hasSIMD && n >= 4 {
		sgdStepAVX(&p[0], &g[0], &vel[0], n, lr, mom, wd)
		return
	}
	for i := range p {
		gi := g[i] + float64(wd*p[i])
		vel[i] = float64(mom*vel[i]) - float64(lr*gi)
		p[i] += vel[i]
	}
}

// reluClamp applies ReLU in place: negative entries become +0; −0 and NaN
// pass through.
//
//vet:noalloc
func reluClamp(z []float64) {
	if hasSIMD && len(z) >= 4 {
		reluClampAVX(&z[0], len(z))
		return
	}
	for j := range z {
		if z[j] < 0 {
			z[j] = 0
		}
	}
}

// reluGate applies ReLU' to a delta vector given the layer's ReLU outputs:
// d[j] becomes +0 where a[j] is zero and is kept where a[j] is positive (or
// NaN).
//
//vet:noalloc
func reluGate(d, a []float64) {
	n := len(d)
	a = a[:n]
	if hasSIMD && n >= 4 {
		reluGateAVX(&d[0], &a[0], n)
		return
	}
	for j := range d {
		if a[j] == 0 {
			d[j] = 0
		}
	}
}

// expSub computes dst[j] = math.Exp(src[j]-sub) over len(src); dst may be
// src. expSubAVX is math.Exp's own instruction sequence four lanes wide
// and takes whole groups of four until one has a lane outside [-708, 709];
// that group, and the tail, go to math.Exp itself, so NaN, ±Inf, overflow,
// underflow and denormal results are the runtime's on both paths.
//
//vet:noalloc
func expSub(dst, src []float64, sub float64) {
	n := len(src)
	dst = dst[:n]
	for j := 0; j < n; {
		if hasSIMD && expExact && n-j >= 4 {
			j += expSubAVX(&dst[j], &src[j], n-j, sub)
		}
		for end := min(j+4, n); j < end; j++ {
			dst[j] = math.Exp(src[j] - sub)
		}
	}
}

// Scale computes x[j] *= a: one rounded multiply per element on either
// path, so a weighting scales bit for bit as the scalar loop does.
//
//vet:noalloc
func Scale(a float64, x []float64) {
	if hasSIMD && len(x) >= 4 {
		mulAVX(&x[0], len(x), a)
		return
	}
	for j := range x {
		x[j] *= a
	}
}

// divBy computes x[j] /= d.
//
//vet:noalloc
func divBy(x []float64, d float64) {
	if hasSIMD && len(x) >= 4 {
		divAVX(&x[0], len(x), d)
		return
	}
	for j := range x {
		x[j] /= d
	}
}

// Axpy computes y[j] += a·x[j] over len(x) — the full-vector folds of
// package fl (aggregate merge, delta apply) on the kernels training uses. A
// multiplier of ±1 rounds once, exactly like the add or subtract it stands
// for.
//
//vet:noalloc
func Axpy(a float64, x, y []float64) { axpy(a, x, y) }
