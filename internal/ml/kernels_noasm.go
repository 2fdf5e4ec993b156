//go:build !amd64

package ml

// Non-amd64 builds always take the portable scalar kernels; the stubs
// below exist only to satisfy the dispatch sites and are unreachable.
const hasSIMD, expExact = false, false

//vet:noalloc
func axpyAVX(a float64, x, y *float64, n int) { panic("ml: SIMD unavailable") }

//vet:noalloc
func axpy4LoopAVX(c *float64, cstep int, x *float64, stride int, a *float64, astep int, y *float64, ystep, n, count int) {
	panic("ml: SIMD unavailable")
}

//vet:noalloc
func axpy8LoopAVX(c *float64, cstep int, x *float64, stride int, a *float64, astep int, y *float64, ystep, n, count int) {
	panic("ml: SIMD unavailable")
}

//vet:noalloc
func dot4LoopAVX(d *float64, dstep int, w *float64, stride int, dst *float64, dststep, n, count int) {
	panic("ml: SIMD unavailable")
}

//vet:noalloc
func forwardTileAVX(a *float64, in int, w, b, z *float64, out int) { panic("ml: SIMD unavailable") }

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
func mulAVX(x *float64, n int, a float64) { panic("ml: SIMD unavailable") }

//vet:noalloc
func divAVX(x *float64, n int, d float64) { panic("ml: SIMD unavailable") }
