package mat

// haveAxpy4F32SSE selects the 4-wide SSE inner loop in axpy4F32. SSE2 is
// part of the amd64 baseline, so no runtime feature check is needed.
const haveAxpy4F32SSE = true

// axpy4F32SSE folds four consecutive float32 panel rows into the accumulator
// window: acc[j] += x[0]·w[j] + x[1]·w[stride+j] + x[2]·w[2·stride+j] +
// x[3]·w[3·stride+j] for j in [0, n). stride is the panel's full column
// count in elements; the caller guarantees all four rows are in bounds.
//
// It exists because the gc compiler does not auto-vectorize, so scalar
// float32 math retires at the same rate as float64 and packing weights in
// float32 would buy nothing on compute-bound shapes. Four lanes per
// MULPS/ADDPS is what turns the halved weight stream into halved
// single-query latency (see BENCH_pr7). It is the whole float32 product
// without AVX2, and the remainder rows and columns beside the AVX2 tile
// (kernels_avx2_amd64.s) with it.
//
//go:noescape
//calloc:noalloc
func axpy4F32SSE(acc *float32, w *float32, stride int, x *[4]float32, n int)
