//go:build amd64

package ml

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
func axpy4AVX(c, x *float64, stride int, y *float64, n int)

//go:noescape
//vet:noalloc
func axpy8AVX(c, x *float64, stride int, y *float64, n int)

//go:noescape
//vet:noalloc
func dot4AVX(d, w *float64, stride int, dst *float64, n int)

//go:noescape
//vet:noalloc
func sgdStepAVX(p, grad, vel *float64, n int, lr, mom, wd float64)

//go:noescape
//vet:noalloc
func reluClampAVX(z *float64, n int)

//go:noescape
//vet:noalloc
func reluGateAVX(d, a *float64, n int)
