package mat

// hasAVX2 is the CPUID verdict, read once at start-up; useAVX2 (kernels.go)
// starts from it.
var hasAVX2 = detectAVX2()

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

// axpy4F64AVX2 is the float64 quad pass of axpy4 and tMulRows:
// acc[j] += a0·b[j] + a1·b[stride+j] + a2·b[2·stride+j] + a3·b[3·stride+j]
// for j in [0, n), with the Go statement's roundings in its order (see
// kernels_avx2_amd64.s). The caller guarantees all four rows are in bounds.
//
//go:noescape
//calloc:noalloc
func axpy4F64AVX2(acc *float64, b *float64, stride int, n int, a0, a1, a2, a3 float64)

// dot4x4F64AVX2 runs dot4 over the first 4·quads elements of x against the
// four rows y, y+stride, y+2·stride, y+3·stride at once, storing the four
// reduced sums to out[0:4]; the caller adds the k%4 tail. The caller
// guarantees every row and out are in bounds.
//
//go:noescape
//calloc:noalloc
func dot4x4F64AVX2(out *float64, x *float64, y *float64, stride int, quads int)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
