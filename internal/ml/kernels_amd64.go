//go:build amd64

package ml

import "math"

// hasSIMD reports whether the AVX2+FMA kernels in kernels_amd64.s are
// usable: the CPU must advertise FMA, AVX and AVX2, and the OS must have
// enabled XMM/YMM state saving. A variable (not const) so the scalar
// fallback stays reachable for the cross-implementation tests.
var hasSIMD = detectAVX2FMA()

func detectAVX2FMA() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c1, _ := cpuid(1, 0)
	const (
		fma     = 1 << 12
		osxsave = 1 << 27
		avx     = 1 << 28
	)
	if c1&fma == 0 || c1&osxsave == 0 || c1&avx == 0 {
		return false
	}
	if lo, _ := xgetbv(); lo&6 != 6 {
		return false
	}
	_, b7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return b7&avx2 != 0
}

func cpuid(op, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

//go:noescape
//vet:noalloc
func axpyAVX(a float64, x, y *float64, n int)

//go:noescape
//vet:noalloc
func axpy4LoopAVX(c *float64, cstep int, x *float64, stride int, a *float64, astep int, y *float64, ystep, n, count int)

//go:noescape
//vet:noalloc
func axpy8LoopAVX(c *float64, cstep int, x *float64, stride int, a *float64, astep int, y *float64, ystep, n, count int)

//go:noescape
//vet:noalloc
func dot4LoopAVX(d *float64, dstep int, w *float64, stride int, dst *float64, dststep, n, count int)

//go:noescape
//vet:noalloc
func forwardTileAVX(a *float64, in int, w, b, z *float64, out int)

//go:noescape
//vet:noalloc
func sgdStepAVX(p, grad, vel *float64, n int, lr, mom, wd float64)

//go:noescape
//vet:noalloc
func reluClampAVX(z *float64, n int)

//go:noescape
//vet:noalloc
func reluGateAVX(d, a *float64, n int)

//go:noescape
//vet:noalloc
func expSubAVX(dst, src *float64, n int, sub float64) int

//go:noescape
//vet:noalloc
func mulAVX(x *float64, n int, a float64)

//go:noescape
//vet:noalloc
func divAVX(x *float64, n int, d float64)

// expExact reports whether expSubAVX returns math.Exp's bits. It copies the
// FMA branch of the runtime's archExp; the runtime takes the other branch
// under GODEBUG=cpu.fma=off (hasSIMD reads CPUID itself and stays true), and
// a future Go may change either. So the copy is checked against the
// original once, on values that tell the two branches apart, and expSub
// uses it only if every bit agrees.
var expExact = hasSIMD && expMatchesRuntime()

func expMatchesRuntime() bool {
	var x, y [64]float64
	x[0] = -56.28938948144715 // ...cc87 fused, ...cc88 not
	for i := 1; i < len(x); i++ {
		x[i] = -708 + 22.4*float64(i) + 1/float64(i)
	}
	if expSubAVX(&y[0], &x[0], len(x), 0) != len(x) {
		return false
	}
	for i, v := range x {
		if math.Float64bits(y[i]) != math.Float64bits(math.Exp(v)) {
			return false
		}
	}
	return true
}
