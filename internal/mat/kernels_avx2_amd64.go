package mat

// useTileF32 selects the register-blocked AVX2 tile in fusedMulRowsF32. It
// is fixed at start-up from CPUID; tests flip it to force the SSE2 path.
var useTileF32 = detectAVX2()

// detectAVX2 reports whether the CPU has AVX2 and the OS saves YMM state:
// CPUID leaf 1 ECX bits 27 (OSXSAVE) and 28 (AVX), XCR0 bits 1–2 (XMM and
// YMM state), and CPUID leaf 7 EBX bit 5 (AVX2).
func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&0b110 != 0b110 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

// tileF32AVX2 computes one 4-row × 16-column float32 output tile outright:
// c[r·ldc+j] = Σ_{kk<k} a[r·lda+kk]·w[kk·ldw+j]. The eight accumulators stay
// in YMM registers across the whole inner dimension, so the tile is loaded
// never and stored once — where axpy4F32SSE reloads and restores its
// accumulator window every four inner terms. Each output element is still
// summed in ascending kk with one rounding per product and one per add, the
// order the SSE2 quad passes use, so both kernels produce identical bits for
// finite weights. The caller guarantees all four rows and sixteen columns
// are in bounds.
//
//go:noescape
//calloc:noalloc
func tileF32AVX2(c *float32, ldc int, a *float32, lda int, w *float32, ldw int, k int)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
