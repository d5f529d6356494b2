//go:build !amd64

package mat

// Non-amd64 builds fall back to the portable Go loops of both precisions and
// never take an AVX2 path.
const haveAxpy4F32SSE = false

const hasAVX2 = false

//calloc:noalloc
func axpy4F32SSE(acc *float32, w *float32, stride int, x *[4]float32, n int) {
	panic("mat: axpy4F32SSE called without SSE support")
}

//calloc:noalloc
func tileF32AVX2(c *float32, ldc int, a *float32, lda int, w *float32, ldw int, k int) {
	panic("mat: tileF32AVX2 called without AVX2 support")
}

//calloc:noalloc
func axpy4F64AVX2(acc *float64, b *float64, stride int, n int, a0, a1, a2, a3 float64) {
	panic("mat: axpy4F64AVX2 called without AVX2 support")
}

//calloc:noalloc
func dot4x4F64AVX2(out *float64, x *float64, y *float64, stride int, quads int) {
	panic("mat: dot4x4F64AVX2 called without AVX2 support")
}
