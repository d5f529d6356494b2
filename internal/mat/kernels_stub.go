//go:build !amd64

package mat

// Non-amd64 builds fall back to the portable scalar loop in axpy4F32 and
// never take the AVX2 tile.
const haveAxpy4F32SSE = false

var useTileF32 = false

//calloc:noalloc
func axpy4F32SSE(acc *float32, w *float32, stride int, x *[4]float32, n int) {
	panic("mat: axpy4F32SSE called without SSE support")
}

//calloc:noalloc
func tileF32AVX2(c *float32, ldc int, a *float32, lda int, w *float32, ldw int, k int) {
	panic("mat: tileF32AVX2 called without AVX2 support")
}
