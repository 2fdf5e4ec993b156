// AVX2+FMA kernels for the training and evaluation hot paths. Every routine
// keeps enough independent accumulator chains in flight to cover the 4-5
// cycle FMA latency; the N-row variants hold all row coefficients broadcast
// in YMM registers so the inner loop is pure load+FMA.

#include "textflag.h"

// func cpuid(op, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL op+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func axpyAVX(a float64, x, y *float64, n int)
// y[j] += a*x[j] for j in [0, n)
TEXT ·axpyAVX(SB), NOSPLIT, $0-32
	VBROADCASTSD a+0(FP), Y0
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI
	MOVQ n+24(FP), CX
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-16, DX

axpy_loop16:
	CMPQ AX, DX
	JGE  axpy_tail4setup
	VMOVUPD (DI)(AX*8), Y1
	VMOVUPD 32(DI)(AX*8), Y2
	VMOVUPD 64(DI)(AX*8), Y3
	VMOVUPD 96(DI)(AX*8), Y4
	VFMADD231PD (SI)(AX*8), Y0, Y1
	VFMADD231PD 32(SI)(AX*8), Y0, Y2
	VFMADD231PD 64(SI)(AX*8), Y0, Y3
	VFMADD231PD 96(SI)(AX*8), Y0, Y4
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	VMOVUPD Y3, 64(DI)(AX*8)
	VMOVUPD Y4, 96(DI)(AX*8)
	ADDQ $16, AX
	JMP  axpy_loop16

axpy_tail4setup:
	MOVQ CX, DX
	ANDQ $-4, DX

axpy_tail4:
	CMPQ AX, DX
	JGE  axpy_tail1
	VMOVUPD (DI)(AX*8), Y1
	VFMADD231PD (SI)(AX*8), Y0, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ $4, AX
	JMP  axpy_tail4

axpy_tail1:
	CMPQ AX, CX
	JGE  axpy_done
	VMOVSD (DI)(AX*8), X1
	VFMADD231SD (SI)(AX*8), X0, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ AX
	JMP  axpy_tail1

axpy_done:
	VZEROUPPER
	RET

// The three multi-row kernels below run a whole layer pass per call: one
// pass over the matrix rows x (w) per step, count steps, the k-th on
// coefficients and outputs k·cstep and k·ystep (k·dstep and k·dststep)
// elements on. Each pass is the same instruction sequence, accumulator
// chains and horizontal reduction included, so every output element gets
// the same operations in the same order whatever the count; a single pass
// is count 1. The two axpy kernels load the row they add to from a and
// store it to y: a is y itself to accumulate, or a row of zeros (astep 0)
// to overwrite y with what a cleared y would have received.

// func axpy4LoopAVX(c *float64, cstep int, x *float64, stride int, a *float64, astep int, y *float64, ystep, n, count int)
// y[k*ystep+j] = a[k*astep+j] + sum_t c[k*cstep+t]*x[t*stride+j] for t in 0..3,
// j in [0, n), k in [0, count)
TEXT ·axpy4LoopAVX(SB), NOSPLIT, $0-80
	MOVQ count+72(FP), R15
	TESTQ R15, R15
	JLE  a4_done
	MOVQ x+16(FP), SI
	MOVQ stride+24(FP), BX
	SHLQ $3, BX
	LEAQ (SI)(BX*1), R8
	LEAQ (R8)(BX*1), R9
	LEAQ (R9)(BX*1), R10
	MOVQ c+0(FP), BX
	MOVQ a+32(FP), R11
	MOVQ y+48(FP), DI
	MOVQ n+64(FP), CX

a4_pass:
	VBROADCASTSD (BX), Y0
	VBROADCASTSD 8(BX), Y1
	VBROADCASTSD 16(BX), Y2
	VBROADCASTSD 24(BX), Y3
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX

a4_loop8:
	CMPQ AX, DX
	JGE  a4_tail4setup

	// two y vectors, each with an acc chain and a mul chain
	VMOVUPD (R11)(AX*8), Y4
	VMOVUPD 32(R11)(AX*8), Y6
	VFMADD231PD (SI)(AX*8), Y0, Y4
	VMULPD (R8)(AX*8), Y1, Y5
	VFMADD231PD 32(SI)(AX*8), Y0, Y6
	VMULPD 32(R8)(AX*8), Y1, Y7
	VFMADD231PD (R9)(AX*8), Y2, Y4
	VFMADD231PD (R10)(AX*8), Y3, Y5
	VFMADD231PD 32(R9)(AX*8), Y2, Y6
	VFMADD231PD 32(R10)(AX*8), Y3, Y7
	VADDPD Y5, Y4, Y4
	VADDPD Y7, Y6, Y6
	VMOVUPD Y4, (DI)(AX*8)
	VMOVUPD Y6, 32(DI)(AX*8)
	ADDQ $8, AX
	JMP  a4_loop8

a4_tail4setup:
	MOVQ CX, DX
	ANDQ $-4, DX

a4_tail4:
	CMPQ AX, DX
	JGE  a4_tail1
	VMOVUPD (R11)(AX*8), Y4
	VFMADD231PD (SI)(AX*8), Y0, Y4
	VMULPD (R8)(AX*8), Y1, Y5
	VFMADD231PD (R9)(AX*8), Y2, Y4
	VFMADD231PD (R10)(AX*8), Y3, Y5
	VADDPD Y5, Y4, Y4
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ $4, AX
	JMP  a4_tail4

a4_tail1:
	CMPQ AX, CX
	JGE  a4_next
	VMOVSD (R11)(AX*8), X4
	VFMADD231SD (SI)(AX*8), X0, X4
	VFMADD231SD (R8)(AX*8), X1, X4
	VFMADD231SD (R9)(AX*8), X2, X4
	VFMADD231SD (R10)(AX*8), X3, X4
	VMOVSD X4, (DI)(AX*8)
	INCQ AX
	JMP  a4_tail1

a4_next:
	MOVQ cstep+8(FP), DX
	LEAQ (BX)(DX*8), BX
	MOVQ astep+40(FP), DX
	LEAQ (R11)(DX*8), R11
	MOVQ ystep+56(FP), DX
	LEAQ (DI)(DX*8), DI
	DECQ R15
	JNZ  a4_pass

a4_done:
	VZEROUPPER
	RET

// func axpy8LoopAVX(c *float64, cstep int, x *float64, stride int, a *float64, astep int, y *float64, ystep, n, count int)
// y[k*ystep+j] = a[k*astep+j] + sum_t c[k*cstep+t]*x[t*stride+j] for t in 0..7,
// j in [0, n), k in [0, count); the passes left are counted on the stack,
// every register being taken
TEXT ·axpy8LoopAVX(SB), NOSPLIT, $8-80
	MOVQ count+72(FP), R15
	TESTQ R15, R15
	JLE  a8_done
	MOVQ R15, left-8(SP)
	MOVQ x+16(FP), SI
	MOVQ stride+24(FP), BX
	SHLQ $3, BX
	LEAQ (SI)(BX*1), R8
	LEAQ (R8)(BX*1), R9
	LEAQ (R9)(BX*1), R10
	LEAQ (R10)(BX*1), R11
	LEAQ (R11)(BX*1), R12
	LEAQ (R12)(BX*1), R13
	LEAQ (R13)(BX*1), R14
	MOVQ c+0(FP), BX
	MOVQ a+32(FP), R15
	MOVQ y+48(FP), DI
	MOVQ n+64(FP), CX

a8_pass:
	VBROADCASTSD (BX), Y0
	VBROADCASTSD 8(BX), Y1
	VBROADCASTSD 16(BX), Y2
	VBROADCASTSD 24(BX), Y3
	VBROADCASTSD 32(BX), Y4
	VBROADCASTSD 40(BX), Y5
	VBROADCASTSD 48(BX), Y6
	VBROADCASTSD 56(BX), Y7
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX

a8_loop8:
	CMPQ AX, DX
	JGE  a8_tail4setup

	// two y vectors; per vector an FMA chain (Y8/Y10) and a second
	// chain started with a multiply (Y9/Y11) so latency overlaps
	VMOVUPD (R15)(AX*8), Y8
	VMOVUPD 32(R15)(AX*8), Y10
	VFMADD231PD (SI)(AX*8), Y0, Y8
	VMULPD (R8)(AX*8), Y1, Y9
	VFMADD231PD 32(SI)(AX*8), Y0, Y10
	VMULPD 32(R8)(AX*8), Y1, Y11
	VFMADD231PD (R9)(AX*8), Y2, Y8
	VFMADD231PD (R10)(AX*8), Y3, Y9
	VFMADD231PD 32(R9)(AX*8), Y2, Y10
	VFMADD231PD 32(R10)(AX*8), Y3, Y11
	VFMADD231PD (R11)(AX*8), Y4, Y8
	VFMADD231PD (R12)(AX*8), Y5, Y9
	VFMADD231PD 32(R11)(AX*8), Y4, Y10
	VFMADD231PD 32(R12)(AX*8), Y5, Y11
	VFMADD231PD (R13)(AX*8), Y6, Y8
	VFMADD231PD (R14)(AX*8), Y7, Y9
	VFMADD231PD 32(R13)(AX*8), Y6, Y10
	VFMADD231PD 32(R14)(AX*8), Y7, Y11
	VADDPD Y9, Y8, Y8
	VADDPD Y11, Y10, Y10
	VMOVUPD Y8, (DI)(AX*8)
	VMOVUPD Y10, 32(DI)(AX*8)
	ADDQ $8, AX
	JMP  a8_loop8

a8_tail4setup:
	MOVQ CX, DX
	ANDQ $-4, DX

a8_tail4:
	CMPQ AX, DX
	JGE  a8_tail1
	VMOVUPD (R15)(AX*8), Y8
	VFMADD231PD (SI)(AX*8), Y0, Y8
	VMULPD (R8)(AX*8), Y1, Y9
	VFMADD231PD (R9)(AX*8), Y2, Y8
	VFMADD231PD (R10)(AX*8), Y3, Y9
	VFMADD231PD (R11)(AX*8), Y4, Y8
	VFMADD231PD (R12)(AX*8), Y5, Y9
	VFMADD231PD (R13)(AX*8), Y6, Y8
	VFMADD231PD (R14)(AX*8), Y7, Y9
	VADDPD Y9, Y8, Y8
	VMOVUPD Y8, (DI)(AX*8)
	ADDQ $4, AX
	JMP  a8_tail4

a8_tail1:
	CMPQ AX, CX
	JGE  a8_next
	VMOVSD (R15)(AX*8), X8
	VFMADD231SD (SI)(AX*8), X0, X8
	VFMADD231SD (R8)(AX*8), X1, X8
	VFMADD231SD (R9)(AX*8), X2, X8
	VFMADD231SD (R10)(AX*8), X3, X8
	VFMADD231SD (R11)(AX*8), X4, X8
	VFMADD231SD (R12)(AX*8), X5, X8
	VFMADD231SD (R13)(AX*8), X6, X8
	VFMADD231SD (R14)(AX*8), X7, X8
	VMOVSD X8, (DI)(AX*8)
	INCQ AX
	JMP  a8_tail1

a8_next:
	MOVQ cstep+8(FP), DX
	LEAQ (BX)(DX*8), BX
	MOVQ astep+40(FP), DX
	LEAQ (R15)(DX*8), R15
	MOVQ ystep+56(FP), DX
	LEAQ (DI)(DX*8), DI
	DECQ left-8(SP)
	JNZ  a8_pass

a8_done:
	VZEROUPPER
	RET

// func dot4LoopAVX(d *float64, dstep int, w *float64, stride int, dst *float64, dststep, n, count int)
// dst[k*dststep+t] = sum_j w[t*stride+j]*d[k*dstep+j] for t in 0..3,
// k in [0, count)
TEXT ·dot4LoopAVX(SB), NOSPLIT, $0-64
	MOVQ count+56(FP), R15
	TESTQ R15, R15
	JLE  d4_done
	MOVQ d+0(FP), SI
	MOVQ w+16(FP), DI
	MOVQ stride+24(FP), BX
	SHLQ $3, BX
	LEAQ (DI)(BX*1), R8
	LEAQ (R8)(BX*1), R9
	LEAQ (R9)(BX*1), R10
	MOVQ dst+32(FP), R11
	MOVQ n+48(FP), CX

d4_pass:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX

d4_loop8:
	CMPQ AX, DX
	JGE  d4_tail4setup
	VMOVUPD (SI)(AX*8), Y8
	VMOVUPD 32(SI)(AX*8), Y9
	VFMADD231PD (DI)(AX*8), Y8, Y0
	VFMADD231PD 32(DI)(AX*8), Y9, Y4
	VFMADD231PD (R8)(AX*8), Y8, Y1
	VFMADD231PD 32(R8)(AX*8), Y9, Y5
	VFMADD231PD (R9)(AX*8), Y8, Y2
	VFMADD231PD 32(R9)(AX*8), Y9, Y6
	VFMADD231PD (R10)(AX*8), Y8, Y3
	VFMADD231PD 32(R10)(AX*8), Y9, Y7
	ADDQ $8, AX
	JMP  d4_loop8

d4_tail4setup:
	MOVQ CX, DX
	ANDQ $-4, DX

d4_tail4:
	CMPQ AX, DX
	JGE  d4_reduce
	VMOVUPD (SI)(AX*8), Y8
	VFMADD231PD (DI)(AX*8), Y8, Y0
	VFMADD231PD (R8)(AX*8), Y8, Y1
	VFMADD231PD (R9)(AX*8), Y8, Y2
	VFMADD231PD (R10)(AX*8), Y8, Y3
	ADDQ $4, AX
	JMP  d4_tail4

d4_reduce:
	// fold the paired chains, then reduce each YMM horizontally
	VADDPD Y4, Y0, Y0
	VADDPD Y5, Y1, Y1
	VADDPD Y6, Y2, Y2
	VADDPD Y7, Y3, Y3
	VEXTRACTF128 $1, Y0, X8
	VADDPD X8, X0, X0
	VHADDPD X0, X0, X0
	VEXTRACTF128 $1, Y1, X8
	VADDPD X8, X1, X1
	VHADDPD X1, X1, X1
	VEXTRACTF128 $1, Y2, X8
	VADDPD X8, X2, X2
	VHADDPD X2, X2, X2
	VEXTRACTF128 $1, Y3, X8
	VADDPD X8, X3, X3
	VHADDPD X3, X3, X3

d4_tail1:
	CMPQ AX, CX
	JGE  d4_store
	VMOVSD (SI)(AX*8), X8
	VFMADD231SD (DI)(AX*8), X8, X0
	VFMADD231SD (R8)(AX*8), X8, X1
	VFMADD231SD (R9)(AX*8), X8, X2
	VFMADD231SD (R10)(AX*8), X8, X3
	INCQ AX
	JMP  d4_tail1

d4_store:
	VMOVSD X0, (R11)
	VMOVSD X1, 8(R11)
	VMOVSD X2, 16(R11)
	VMOVSD X3, 24(R11)
	MOVQ dstep+8(FP), DX
	LEAQ (SI)(DX*8), SI
	MOVQ dststep+40(FP), DX
	LEAQ (R11)(DX*8), R11
	DECQ R15
	JNZ  d4_pass

d4_done:
	VZEROUPPER
	RET

// Evaluation. forwardTileAVX computes one layer for a tile of four samples
// with the accumulators in registers: for a block of up to three output
// vectors it keeps the four samples' twelve accumulators in Y0-Y11 across
// all of the layer's inputs, so each weight vector is loaded once for the
// four samples and no output is stored before its last input. Every
// element gets predictInto's operations in predictInto's order — the bias,
// then one fused multiply-add per input in ascending order, with the
// operands in axpyAVX's positions (accumulator, input, weight) — except
// that an input of zero is multiplied in rather than skipped. Outputs past
// the last whole vector are one vector under a lane mask.

// tailmask<>+8*(3-r) holds r all-ones lanes followed by zero lanes.
DATA tailmask<>+0(SB)/8, $0xffffffffffffffff
DATA tailmask<>+8(SB)/8, $0xffffffffffffffff
DATA tailmask<>+16(SB)/8, $0xffffffffffffffff
DATA tailmask<>+24(SB)/8, $0
DATA tailmask<>+32(SB)/8, $0
DATA tailmask<>+40(SB)/8, $0
DATA tailmask<>+48(SB)/8, $0
GLOBL tailmask<>(SB), RODATA|NOPTR, $56

// func forwardTileAVX(a *float64, in int, w, b, z *float64, out int)
// z[s*out+j] = b[j] + sum_i a[s*in+i]*w[i*out+j], one fused multiply-add
// per i in ascending order, for s in 0..3 and j in [0, out)
TEXT ·forwardTileAVX(SB), NOSPLIT, $0-48
	// SI, R8, R9, R10 point past the four input rows, which are indexed
	// from -in up to 0; DI, R11, R12, R13 at the four output rows.
	MOVQ in+8(FP), CX
	MOVQ a+0(FP), SI
	LEAQ (SI)(CX*8), SI
	LEAQ (SI)(CX*8), R8
	LEAQ (R8)(CX*8), R9
	LEAQ (R9)(CX*8), R10
	NEGQ CX
	MOVQ out+40(FP), R14
	MOVQ z+32(FP), DI
	LEAQ (DI)(R14*8), R11
	LEAQ (R11)(R14*8), R12
	LEAQ (R12)(R14*8), R13
	SHLQ $3, R14 // bytes from one weight row to the next
	XORQ DX, DX  // first output of the block

ft_block12:
	LEAQ 12(DX), AX
	CMPQ AX, out+40(FP)
	JGT  ft_block8
	MOVQ b+24(FP), BX
	VMOVUPD (BX)(DX*8), Y0
	VMOVUPD 32(BX)(DX*8), Y1
	VMOVUPD 64(BX)(DX*8), Y2
	VMOVAPD Y0, Y3
	VMOVAPD Y1, Y4
	VMOVAPD Y2, Y5
	VMOVAPD Y0, Y6
	VMOVAPD Y1, Y7
	VMOVAPD Y2, Y8
	VMOVAPD Y0, Y9
	VMOVAPD Y1, Y10
	VMOVAPD Y2, Y11
	MOVQ w+16(FP), BX
	LEAQ (BX)(DX*8), BX
	MOVQ CX, AX
	TESTQ AX, AX
	JZ   ft_store12

ft_loop12:
	VMOVUPD (BX), Y12
	VMOVUPD 32(BX), Y13
	VMOVUPD 64(BX), Y14
	VBROADCASTSD (SI)(AX*8), Y15
	VFMADD231PD Y12, Y15, Y0
	VFMADD231PD Y13, Y15, Y1
	VFMADD231PD Y14, Y15, Y2
	VBROADCASTSD (R8)(AX*8), Y15
	VFMADD231PD Y12, Y15, Y3
	VFMADD231PD Y13, Y15, Y4
	VFMADD231PD Y14, Y15, Y5
	VBROADCASTSD (R9)(AX*8), Y15
	VFMADD231PD Y12, Y15, Y6
	VFMADD231PD Y13, Y15, Y7
	VFMADD231PD Y14, Y15, Y8
	VBROADCASTSD (R10)(AX*8), Y15
	VFMADD231PD Y12, Y15, Y9
	VFMADD231PD Y13, Y15, Y10
	VFMADD231PD Y14, Y15, Y11
	ADDQ R14, BX
	INCQ AX
	JNZ  ft_loop12

ft_store12:
	VMOVUPD Y0, (DI)(DX*8)
	VMOVUPD Y1, 32(DI)(DX*8)
	VMOVUPD Y2, 64(DI)(DX*8)
	VMOVUPD Y3, (R11)(DX*8)
	VMOVUPD Y4, 32(R11)(DX*8)
	VMOVUPD Y5, 64(R11)(DX*8)
	VMOVUPD Y6, (R12)(DX*8)
	VMOVUPD Y7, 32(R12)(DX*8)
	VMOVUPD Y8, 64(R12)(DX*8)
	VMOVUPD Y9, (R13)(DX*8)
	VMOVUPD Y10, 32(R13)(DX*8)
	VMOVUPD Y11, 64(R13)(DX*8)
	ADDQ $12, DX
	JMP  ft_block12

ft_block8:
	LEAQ 8(DX), AX
	CMPQ AX, out+40(FP)
	JGT  ft_block4
	MOVQ b+24(FP), BX
	VMOVUPD (BX)(DX*8), Y0
	VMOVUPD 32(BX)(DX*8), Y1
	VMOVAPD Y0, Y2
	VMOVAPD Y1, Y3
	VMOVAPD Y0, Y4
	VMOVAPD Y1, Y5
	VMOVAPD Y0, Y6
	VMOVAPD Y1, Y7
	MOVQ w+16(FP), BX
	LEAQ (BX)(DX*8), BX
	MOVQ CX, AX
	TESTQ AX, AX
	JZ   ft_store8

ft_loop8:
	VMOVUPD (BX), Y12
	VMOVUPD 32(BX), Y13
	VBROADCASTSD (SI)(AX*8), Y15
	VFMADD231PD Y12, Y15, Y0
	VFMADD231PD Y13, Y15, Y1
	VBROADCASTSD (R8)(AX*8), Y15
	VFMADD231PD Y12, Y15, Y2
	VFMADD231PD Y13, Y15, Y3
	VBROADCASTSD (R9)(AX*8), Y15
	VFMADD231PD Y12, Y15, Y4
	VFMADD231PD Y13, Y15, Y5
	VBROADCASTSD (R10)(AX*8), Y15
	VFMADD231PD Y12, Y15, Y6
	VFMADD231PD Y13, Y15, Y7
	ADDQ R14, BX
	INCQ AX
	JNZ  ft_loop8

ft_store8:
	VMOVUPD Y0, (DI)(DX*8)
	VMOVUPD Y1, 32(DI)(DX*8)
	VMOVUPD Y2, (R11)(DX*8)
	VMOVUPD Y3, 32(R11)(DX*8)
	VMOVUPD Y4, (R12)(DX*8)
	VMOVUPD Y5, 32(R12)(DX*8)
	VMOVUPD Y6, (R13)(DX*8)
	VMOVUPD Y7, 32(R13)(DX*8)
	ADDQ $8, DX

ft_block4:
	LEAQ 4(DX), AX
	CMPQ AX, out+40(FP)
	JGT  ft_tail
	MOVQ b+24(FP), BX
	VMOVUPD (BX)(DX*8), Y0
	VMOVAPD Y0, Y1
	VMOVAPD Y0, Y2
	VMOVAPD Y0, Y3
	MOVQ w+16(FP), BX
	LEAQ (BX)(DX*8), BX
	MOVQ CX, AX
	TESTQ AX, AX
	JZ   ft_store4

ft_loop4:
	VMOVUPD (BX), Y12
	VBROADCASTSD (SI)(AX*8), Y15
	VFMADD231PD Y12, Y15, Y0
	VBROADCASTSD (R8)(AX*8), Y15
	VFMADD231PD Y12, Y15, Y1
	VBROADCASTSD (R9)(AX*8), Y15
	VFMADD231PD Y12, Y15, Y2
	VBROADCASTSD (R10)(AX*8), Y15
	VFMADD231PD Y12, Y15, Y3
	ADDQ R14, BX
	INCQ AX
	JNZ  ft_loop4

ft_store4:
	VMOVUPD Y0, (DI)(DX*8)
	VMOVUPD Y1, (R11)(DX*8)
	VMOVUPD Y2, (R12)(DX*8)
	VMOVUPD Y3, (R13)(DX*8)
	ADDQ $4, DX

ft_tail:
	// the last 1-3 outputs: loads and stores under the mask in Y14
	MOVQ out+40(FP), AX
	SUBQ DX, AX
	JZ   ft_done
	MOVQ $3, BX
	SUBQ AX, BX
	LEAQ tailmask<>(SB), AX
	VMOVUPD (AX)(BX*8), Y14
	MOVQ b+24(FP), BX
	LEAQ (BX)(DX*8), BX
	VMASKMOVPD (BX), Y14, Y0
	VMOVAPD Y0, Y1
	VMOVAPD Y0, Y2
	VMOVAPD Y0, Y3
	MOVQ w+16(FP), BX
	LEAQ (BX)(DX*8), BX
	MOVQ CX, AX
	TESTQ AX, AX
	JZ   ft_storetail

ft_looptail:
	VMASKMOVPD (BX), Y14, Y12
	VBROADCASTSD (SI)(AX*8), Y15
	VFMADD231PD Y12, Y15, Y0
	VBROADCASTSD (R8)(AX*8), Y15
	VFMADD231PD Y12, Y15, Y1
	VBROADCASTSD (R9)(AX*8), Y15
	VFMADD231PD Y12, Y15, Y2
	VBROADCASTSD (R10)(AX*8), Y15
	VFMADD231PD Y12, Y15, Y3
	ADDQ R14, BX
	INCQ AX
	JNZ  ft_looptail

ft_storetail:
	VMASKMOVPD Y0, Y14, (DI)(DX*8)
	VMASKMOVPD Y1, Y14, (R11)(DX*8)
	VMASKMOVPD Y2, Y14, (R12)(DX*8)
	VMASKMOVPD Y3, Y14, (R13)(DX*8)

ft_done:
	VZEROUPPER
	RET

// The element-wise kernels below use separate multiply, add and subtract
// in the operation and operand order the compiler gives their scalar loops
// in kernels.go (no FMA: one rounding per Go operator; first source operand
// first, which is the one whose NaN payload survives), so both paths
// produce the same bits.

// func sgdStepAVX(p, grad, vel *float64, n int, lr, mom, wd float64)
// gi = grad[j] + wd*p[j]; vel[j] = mom*vel[j] - lr*gi; p[j] += vel[j]
TEXT ·sgdStepAVX(SB), NOSPLIT, $0-56
	MOVQ p+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ vel+16(FP), BX
	MOVQ n+24(FP), CX
	VBROADCASTSD lr+32(FP), Y0
	VBROADCASTSD mom+40(FP), Y1
	VBROADCASTSD wd+48(FP), Y2
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-4, DX

sgd_loop4:
	CMPQ AX, DX
	JGE  sgd_tail1
	VMOVUPD (DI)(AX*8), Y3
	VMULPD Y2, Y3, Y4
	VADDPD (SI)(AX*8), Y4, Y4
	VMOVUPD (BX)(AX*8), Y5
	VMULPD Y1, Y5, Y5
	VMULPD Y0, Y4, Y4
	VSUBPD Y4, Y5, Y5
	VMOVUPD Y5, (BX)(AX*8)
	VADDPD Y5, Y3, Y3
	VMOVUPD Y3, (DI)(AX*8)
	ADDQ $4, AX
	JMP  sgd_loop4

sgd_tail1:
	CMPQ AX, CX
	JGE  sgd_done
	VMOVSD (DI)(AX*8), X3
	VMULSD X2, X3, X4
	VADDSD (SI)(AX*8), X4, X4
	VMOVSD (BX)(AX*8), X5
	VMULSD X1, X5, X5
	VMULSD X0, X4, X4
	VSUBSD X4, X5, X5
	VMOVSD X5, (BX)(AX*8)
	VADDSD X5, X3, X3
	VMOVSD X3, (DI)(AX*8)
	INCQ AX
	JMP  sgd_tail1

sgd_done:
	VZEROUPPER
	RET

// func reluClampAVX(z *float64, n int)
// z[j] = max(+0, z[j]) with z as the second source, the one VMAXPD returns
// when an operand is NaN or both are zero: like `if z < 0 { z = 0 }`.
TEXT ·reluClampAVX(SB), NOSPLIT, $0-16
	MOVQ z+0(FP), DI
	MOVQ n+8(FP), CX
	VXORPD Y0, Y0, Y0
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-4, DX

relu_loop4:
	CMPQ AX, DX
	JGE  relu_tail1
	VMAXPD (DI)(AX*8), Y0, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ $4, AX
	JMP  relu_loop4

relu_tail1:
	CMPQ AX, CX
	JGE  relu_done
	VMAXSD (DI)(AX*8), X0, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ AX
	JMP  relu_tail1

relu_done:
	VZEROUPPER
	RET

// func reluGateAVX(d, a *float64, n int)
// d[j] &= (a[j] != 0) as an all-ones/all-zeros mask; predicate 4 is
// not-equal, unordered, so a NaN activation keeps its delta.
TEXT ·reluGateAVX(SB), NOSPLIT, $0-24
	MOVQ d+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ n+16(FP), CX
	VXORPD Y0, Y0, Y0
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-4, DX

gate_loop4:
	CMPQ AX, DX
	JGE  gate_tail1
	VCMPPD $4, (SI)(AX*8), Y0, Y1
	VANDPD (DI)(AX*8), Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ $4, AX
	JMP  gate_loop4

gate_tail1:
	CMPQ AX, CX
	JGE  gate_done
	VCMPSD $4, (SI)(AX*8), X0, X1
	VMOVSD (DI)(AX*8), X2
	VANDPD X2, X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ AX
	JMP  gate_tail1

gate_done:
	VZEROUPPER
	RET

// The softmax head. expSubAVX is math.Exp four lanes wide: the avxfma branch
// of archExp ($GOROOT/src/math/exp_amd64.s) instruction for instruction —
// same constants from the same decimal literals, same operand order, same
// fusing — so every lane holds the bits math.Exp returns. Only the straight
// line is copied: a group with a lane outside [-708, 709] (NaN, ±Inf, and
// the overflow, underflow and denormal branches all lie there) is left to
// the caller, who gives it to math.Exp itself. Each constant is stored four
// times over so that it can be a memory operand.

#define EXPC4(off, v) \
	DATA expc<>+off+0(SB)/8, v; \
	DATA expc<>+off+8(SB)/8, v; \
	DATA expc<>+off+16(SB)/8, v; \
	DATA expc<>+off+24(SB)/8, v

EXPC4(0, $1.4426950408889634073599246810018920) // LOG2E
EXPC4(32, $0.69314718055966295651160180568695068359375) // LN2U
EXPC4(64, $0.28235290563031577122588448175013436025525412068e-12) // LN2L
EXPC4(96, $0.0625)
EXPC4(128, $2.4801587301587301587e-5) // exprodata, last to first
EXPC4(160, $1.9841269841269841270e-4)
EXPC4(192, $1.3888888888888888889e-3)
EXPC4(224, $8.3333333333333333333e-3)
EXPC4(256, $4.1666666666666666667e-2)
EXPC4(288, $1.6666666666666666667e-1)
EXPC4(320, $0.5)
EXPC4(352, $1.0)
EXPC4(384, $2.0)
EXPC4(416, $0x3FF) // exponent bias, an integer
EXPC4(448, $-708.0) // a group is taken when every lane is in [-708, 709]
EXPC4(480, $709.0)
GLOBL expc<>(SB), RODATA|NOPTR, $512

// func expSubAVX(dst, src *float64, n int, sub float64) int
// dst[j] = exp(src[j]-sub) for whole groups of four from j = 0, until a
// group has a lane outside [-708, 709] or fewer than four are left; returns
// the number of elements written.
TEXT ·expSubAVX(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSD sub+24(FP), Y15
	VMOVUPD expc<>+384(SB), Y14 // 2.0, used four times a group
	XORQ AX, AX
	ANDQ $-4, CX

exp_loop4:
	CMPQ AX, CX
	JGE  exp_done
	VMOVUPD (SI)(AX*8), Y0
	VSUBPD Y15, Y0, Y0
	VCMPPD $0x1D, expc<>+448(SB), Y0, Y1 // x >= -708, ordered
	VCMPPD $0x12, expc<>+480(SB), Y0, Y2 // x <= 709, ordered
	VANDPD Y2, Y1, Y1
	VMOVMSKPD Y1, BX
	CMPL BX, $15
	JNE  exp_done
	VMULPD expc<>+0(SB), Y0, Y1
	VCVTPD2DQY Y1, X2 // k = round-to-even(x*LOG2E), as CVTSD2SL under MXCSR
	VCVTDQ2PD X2, Y1
	VFNMADD231PD expc<>+32(SB), Y1, Y0
	VFNMADD231PD expc<>+64(SB), Y1, Y0
	VMULPD expc<>+96(SB), Y0, Y0
	VMOVUPD expc<>+128(SB), Y1
	VFMADD213PD expc<>+160(SB), Y0, Y1
	VFMADD213PD expc<>+192(SB), Y0, Y1
	VFMADD213PD expc<>+224(SB), Y0, Y1
	VFMADD213PD expc<>+256(SB), Y0, Y1
	VFMADD213PD expc<>+288(SB), Y0, Y1
	VFMADD213PD expc<>+320(SB), Y0, Y1
	VFMADD213PD expc<>+352(SB), Y0, Y1
	VMULPD Y1, Y0, Y0
	VADDPD Y14, Y0, Y1
	VMULPD Y1, Y0, Y0
	VADDPD Y14, Y0, Y1
	VMULPD Y1, Y0, Y0
	VADDPD Y14, Y0, Y1
	VMULPD Y1, Y0, Y0
	VADDPD Y14, Y0, Y1
	VFMADD213PD expc<>+352(SB), Y1, Y0
	VPMOVSXDQ X2, Y2 // 2**k: (k + bias) << 52
	VPADDQ expc<>+416(SB), Y2, Y2
	VPSLLQ $52, Y2, Y2
	VMULPD Y2, Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ $4, AX
	JMP  exp_loop4

exp_done:
	MOVQ AX, ret+32(FP)
	VZEROUPPER
	RET

// func mulAVX(x *float64, n int, a float64)
// x[j] *= a: one rounded multiply per lane, like the scalar loop.
TEXT ·mulAVX(SB), NOSPLIT, $0-24
	MOVQ x+0(FP), DI
	MOVQ n+8(FP), CX
	VBROADCASTSD a+16(FP), Y0
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-4, DX

mul_loop4:
	CMPQ AX, DX
	JGE  mul_tail1
	VMOVUPD (DI)(AX*8), Y1
	VMULPD Y0, Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ $4, AX
	JMP  mul_loop4

mul_tail1:
	CMPQ AX, CX
	JGE  mul_done
	VMOVSD (DI)(AX*8), X1
	VMULSD X0, X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ AX
	JMP  mul_tail1

mul_done:
	VZEROUPPER
	RET

// func divAVX(x *float64, n int, d float64)
// x[j] /= d: one correctly rounded divide per lane, like the scalar loop.
TEXT ·divAVX(SB), NOSPLIT, $0-24
	MOVQ x+0(FP), DI
	MOVQ n+8(FP), CX
	VBROADCASTSD d+16(FP), Y0
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-4, DX

div_loop4:
	CMPQ AX, DX
	JGE  div_tail1
	VMOVUPD (DI)(AX*8), Y1
	VDIVPD Y0, Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ $4, AX
	JMP  div_loop4

div_tail1:
	CMPQ AX, CX
	JGE  div_done
	VMOVSD (DI)(AX*8), X1
	VDIVSD X0, X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ AX
	JMP  div_tail1

div_done:
	VZEROUPPER
	RET
