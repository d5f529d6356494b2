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
