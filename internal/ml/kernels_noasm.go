//go:build !amd64

package ml

// Non-amd64 builds always take the portable scalar kernels; the stubs
// below exist only to satisfy the dispatch sites and are unreachable.
const hasSIMD, expExact = false, false

//vet:noalloc
func axpyAVX(a float64, x, y *float64, n int) { panic("ml: SIMD unavailable") }

//vet:noalloc
func axpy4AVX(c, x *float64, stride int, y *float64, n int) { panic("ml: SIMD unavailable") }

//vet:noalloc
func axpy8AVX(c, x *float64, stride int, y *float64, n int) { panic("ml: SIMD unavailable") }

//vet:noalloc
func dot4AVX(d, w *float64, stride int, dst *float64, n int) {
	panic("ml: SIMD unavailable")
}

//vet:noalloc
func sgdStepAVX(p, grad, vel *float64, n int, lr, mom, wd float64) {
	panic("ml: SIMD unavailable")
}

//vet:noalloc
func reluClampAVX(z *float64, n int) { panic("ml: SIMD unavailable") }

//vet:noalloc
func reluGateAVX(d, a *float64, n int) { panic("ml: SIMD unavailable") }

//vet:noalloc
func expSubAVX(dst, src *float64, n int, sub float64) int { panic("ml: SIMD unavailable") }

//vet:noalloc
func divAVX(x *float64, n int, d float64) { panic("ml: SIMD unavailable") }
