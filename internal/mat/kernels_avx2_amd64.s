#include "textflag.h"

// func tileF32AVX2(c *float32, ldc int, a *float32, lda int, w *float32, ldw int, k int)
//
// c[r*ldc+j] = Σ_{kk<k} a[r*lda+kk]·w[kk*ldw+j] for r in [0, 4), j in [0, 16)
//
// Y0..Y7 are the 4×16 output tile (two YMM registers per row) and stay in
// registers for the whole inner dimension; the tile is stored once at the
// end. Each step loads one 16-wide panel row into Y8/Y9, broadcasts each of
// the four activations and folds it in with a separate VMULPS and VADDPS.
// No FMA: a fused multiply-add rounds once where the SSE2 kernel rounds
// twice, and the two kernels must agree bit for bit.
TEXT ·tileF32AVX2(SB), NOSPLIT, $0-56
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), R8
	MOVQ a+16(FP), AX
	MOVQ lda+24(FP), R9
	MOVQ w+32(FP), R11
	MOVQ ldw+40(FP), R12
	MOVQ k+48(FP), CX

	SHLQ $2, R8  // strides in bytes
	SHLQ $2, R9
	SHLQ $2, R12

	// Activation row pointers: AX, BX, DX, SI walk the four rows of a.
	LEAQ (AX)(R9*1), BX
	LEAQ (BX)(R9*1), DX
	LEAQ (DX)(R9*1), SI

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

loop:
	TESTQ CX, CX
	JLE   store
	VMOVUPS 0(R11), Y8
	VMOVUPS 32(R11), Y9

	VBROADCASTSS 0(AX), Y10
	VMULPS Y8, Y10, Y11
	VADDPS Y11, Y0, Y0
	VMULPS Y9, Y10, Y12
	VADDPS Y12, Y1, Y1

	VBROADCASTSS 0(BX), Y10
	VMULPS Y8, Y10, Y11
	VADDPS Y11, Y2, Y2
	VMULPS Y9, Y10, Y12
	VADDPS Y12, Y3, Y3

	VBROADCASTSS 0(DX), Y10
	VMULPS Y8, Y10, Y11
	VADDPS Y11, Y4, Y4
	VMULPS Y9, Y10, Y12
	VADDPS Y12, Y5, Y5

	VBROADCASTSS 0(SI), Y10
	VMULPS Y8, Y10, Y11
	VADDPS Y11, Y6, Y6
	VMULPS Y9, Y10, Y12
	VADDPS Y12, Y7, Y7

	ADDQ $4, AX
	ADDQ $4, BX
	ADDQ $4, DX
	ADDQ $4, SI
	ADDQ R12, R11
	DECQ CX
	JMP  loop

store:
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	ADDQ    R8, DI
	VMOVUPS Y2, 0(DI)
	VMOVUPS Y3, 32(DI)
	ADDQ    R8, DI
	VMOVUPS Y4, 0(DI)
	VMOVUPS Y5, 32(DI)
	ADDQ    R8, DI
	VMOVUPS Y6, 0(DI)
	VMOVUPS Y7, 32(DI)
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
//
// Reads XCR0, the OS-enabled register-state mask. Only valid once CPUID
// leaf 1 has reported OSXSAVE.
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func axpy4F64AVX2(acc *float64, b *float64, stride int, n int, a0, a1, a2, a3 float64)
//
// acc[j] += ((a0*b[j] + a1*b[stride+j]) + a2*b[2*stride+j]) + a3*b[3*stride+j]
//
// The float64 quad pass of axpy4 and tMulRows, four columns per YMM. Every
// lane repeats the Go statement's roundings in its order: four products,
// the three adds of the quad folded left to right, then one add into the
// accumulator. No FMA, which would round each product-add once instead of
// twice. The main loop retires eight columns, then a 4-wide and a scalar
// tail finish the window.
TEXT ·axpy4F64AVX2(SB), NOSPLIT, $0-64
	MOVQ acc+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ stride+16(FP), R8
	MOVQ n+24(FP), CX

	VBROADCASTSD a0+32(FP), Y4
	VBROADCASTSD a1+40(FP), Y5
	VBROADCASTSD a2+48(FP), Y6
	VBROADCASTSD a3+56(FP), Y7

	// Row base pointers: SI, R9, R10, R11 walk the four panel rows.
	LEAQ (SI)(R8*8), R9
	LEAQ (R9)(R8*8), R10
	LEAQ (R10)(R8*8), R11

loop8:
	CMPQ    CX, $8
	JL      loop4
	VMULPD  0(SI), Y4, Y0
	VMULPD  32(SI), Y4, Y1
	VMULPD  0(R9), Y5, Y2
	VMULPD  32(R9), Y5, Y3
	VADDPD  Y2, Y0, Y0
	VADDPD  Y3, Y1, Y1
	VMULPD  0(R10), Y6, Y2
	VMULPD  32(R10), Y6, Y3
	VADDPD  Y2, Y0, Y0
	VADDPD  Y3, Y1, Y1
	VMULPD  0(R11), Y7, Y2
	VMULPD  32(R11), Y7, Y3
	VADDPD  Y2, Y0, Y0
	VADDPD  Y3, Y1, Y1
	VMOVUPD 0(DI), Y2
	VMOVUPD 32(DI), Y3
	VADDPD  Y0, Y2, Y2
	VADDPD  Y1, Y3, Y3
	VMOVUPD Y2, 0(DI)
	VMOVUPD Y3, 32(DI)
	ADDQ    $64, DI
	ADDQ    $64, SI
	ADDQ    $64, R9
	ADDQ    $64, R10
	ADDQ    $64, R11
	SUBQ    $8, CX
	JMP     loop8

loop4:
	CMPQ    CX, $4
	JL      tail
	VMULPD  0(SI), Y4, Y0
	VMULPD  0(R9), Y5, Y2
	VADDPD  Y2, Y0, Y0
	VMULPD  0(R10), Y6, Y2
	VADDPD  Y2, Y0, Y0
	VMULPD  0(R11), Y7, Y2
	VADDPD  Y2, Y0, Y0
	VMOVUPD 0(DI), Y2
	VADDPD  Y0, Y2, Y2
	VMOVUPD Y2, 0(DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, R9
	ADDQ    $32, R10
	ADDQ    $32, R11
	SUBQ    $4, CX
	JMP     loop4

tail:
	TESTQ  CX, CX
	JLE    done
	VMULSD 0(SI), X4, X0
	VMULSD 0(R9), X5, X2
	VADDSD X2, X0, X0
	VMULSD 0(R10), X6, X2
	VADDSD X2, X0, X0
	VMULSD 0(R11), X7, X2
	VADDSD X2, X0, X0
	VMOVSD 0(DI), X2
	VADDSD X0, X2, X2
	VMOVSD X2, 0(DI)
	ADDQ   $8, DI
	ADDQ   $8, SI
	ADDQ   $8, R9
	ADDQ   $8, R10
	ADDQ   $8, R11
	DECQ   CX
	JMP    tail

done:
	VZEROUPPER
	RET

// func dot4x4F64AVX2(out *float64, x *float64, y *float64, stride int, quads int)
//
// out[c] = (s0+s1) + (s2+s3) for the row y + c*stride, c in [0, 4), where
// s_l = Σ_{q<quads} x[4q+l]*y[c*stride+4q+l]
//
// Four dot4 calls at once: Y0..Y3 hold the four rows' accumulators, lane l
// of each being dot4's s_l, and each step folds one product per lane in
// with a separate VMULPD and VADDPD (no FMA, as above). The reduction pairs
// lanes (0,1) and (2,3) with VHADDPD, gathers the four rows' halves with
// VPERM2F128 and adds them, which is dot4's (s0+s1)+(s2+s3). The k%4 tail
// is left to the caller.
TEXT ·dot4x4F64AVX2(SB), NOSPLIT, $0-40
	MOVQ out+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), AX
	MOVQ stride+24(FP), R8
	MOVQ quads+32(FP), CX

	SHLQ $3, R8 // stride in bytes
	LEAQ (AX)(R8*1), BX
	LEAQ (BX)(R8*1), DX
	LEAQ (DX)(R8*1), R9

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

loop:
	TESTQ   CX, CX
	JLE     reduce
	VMOVUPD 0(SI), Y4
	VMULPD  0(AX), Y4, Y5
	VADDPD  Y5, Y0, Y0
	VMULPD  0(BX), Y4, Y6
	VADDPD  Y6, Y1, Y1
	VMULPD  0(DX), Y4, Y7
	VADDPD  Y7, Y2, Y2
	VMULPD  0(R9), Y4, Y8
	VADDPD  Y8, Y3, Y3
	ADDQ    $32, SI
	ADDQ    $32, AX
	ADDQ    $32, BX
	ADDQ    $32, DX
	ADDQ    $32, R9
	DECQ    CX
	JMP     loop

reduce:
	VHADDPD    Y1, Y0, Y4       // [s0+s1 of rows 0, 1 | s2+s3 of rows 0, 1]
	VHADDPD    Y3, Y2, Y5       // the same for rows 2, 3
	VPERM2F128 $0x20, Y5, Y4, Y6 // s0+s1 of rows 0..3
	VPERM2F128 $0x31, Y5, Y4, Y7 // s2+s3 of rows 0..3
	VADDPD     Y7, Y6, Y6
	VMOVUPD    Y6, 0(DI)
	VZEROUPPER
	RET
