package mat

// Cache-blocked (tiled) inner kernels for the three matrix products.
//
// Every kernel computes a contiguous row range [lo, hi) of its destination so
// the row-sharding shard points in parallel.go can split work across
// goroutines without synchronisation. Within a shard the loops are tiled:
// the operand panel a tile touches is sized to stay resident in a core's L1/L2
// cache while it is reused across every row of the shard, and the innermost
// updates are unrolled 4-wide — axpy-style kernels fold four inner-dimension
// terms into one pass over the destination row (4× fewer dst loads/stores),
// dot-product kernels carry four independent accumulators to break the
// floating-point add dependency chain.
//
// Unrolling reorders floating-point accumulation, so kernel results may
// differ from a naive triple loop in the last ulps. They remain deterministic:
// a given product always sums in the same order regardless of worker count,
// so parallel results are bit-identical to sequential ones.
//
// With AVX2 (useAVX2) the quad pass of axpy4 and tMulRows and four dot4
// columns at a time of mulTRows run in assembly (kernels_avx2_amd64.s),
// four float64 lanes per instruction. The assembly repeats the Go loops'
// association and roundings exactly — no FMA, no reordered adds — so both
// paths produce the same bits; the zero-quad skip, the tiling and the k%4
// tails stay here.

// useAVX2 selects the AVX2 paths of both precisions: the float64 kernels
// below and the float32 register tile in fusedMulRowsF32. It starts from the
// CPUID check; SetAVX2 forces the portable paths for tests.
var useAVX2 = hasAVX2

// Kernel names the instruction-set path products take on this machine:
// "avx2" (float64 AVX2 kernels, float32 register tile with SSE2 for the
// remainders), "sse2" (float32 SSE2, float64 portable Go), or "generic"
// (portable Go throughout). Nodes report it in /v1/stats so a benchmark
// figure can be tied to the kernels that produced it.
func Kernel() string {
	switch {
	case useAVX2:
		return "avx2"
	case haveAxpy4F32SSE:
		return "sse2"
	default:
		return "generic"
	}
}

// SetAVX2 switches the AVX2 paths on or off and returns the previous
// setting; on is ignored on a CPU without AVX2. Both settings produce
// identical bits, so it exists for tests that pin the portable paths. It
// must not be called while a product is running.
func SetAVX2(on bool) bool {
	prev := useAVX2
	useAVX2 = on && hasAVX2
	return prev
}

const (
	// blockK is the inner-dimension tile: each (blockK × blockN) panel of b
	// is reused across all rows of the shard while cache-hot.
	blockK = 128
	// blockN is the output-column tile of the axpy-style kernels
	// (blockK×blockN float64 panel = 256 kB, sized for a shared L2).
	blockN = 256
	// blockJ is the output-column tile of the dot-product kernels: blockJ
	// rows of the (transposed or packed) operand are reused across every
	// row of the shard.
	blockJ = 32
)

// mulRows computes rows [lo, hi) of dst = a·b.
//
//calloc:noalloc
func mulRows(dst, a, b *Matrix, lo, hi int) {
	fusedMulRows(dst, a, b, nil, ActIdentity, lo, hi)
}

// fusedMulRows computes rows [lo, hi) of dst = act(a·b + bias). The epilogue
// runs per destination tile, right after the tile's last inner-dimension
// block, while the tile is still cache-hot — fusing the bias add and
// activation into the product instead of separate full passes over dst.
// bias may be nil; ActIdentity skips the activation.
//
//calloc:noalloc
func fusedMulRows(dst, a, b *Matrix, bias []float64, act Activation, lo, hi int) {
	n, kDim := dst.Cols, a.Cols
	for i := lo; i < hi; i++ {
		orow := dst.Data[i*n : (i+1)*n]
		for j := range orow {
			orow[j] = 0
		}
	}
	if n == 0 {
		return
	}
	epilogue := bias != nil || act != ActIdentity
	for j0 := 0; j0 < n; j0 += blockN {
		j1 := min(j0+blockN, n)
		for k0 := 0; k0 < kDim; k0 += blockK {
			k1 := min(k0+blockK, kDim)
			for i := lo; i < hi; i++ {
				arow := a.Data[i*kDim : (i+1)*kDim]
				orow := dst.Data[i*n+j0 : i*n+j1]
				axpy4(orow, arow, b.Data, n, k0, k1, j0)
			}
		}
		if !epilogue {
			continue
		}
		for i := lo; i < hi; i++ {
			orow := dst.Data[i*n+j0 : i*n+j1]
			if bias != nil {
				brow := bias[j0:j1]
				for j := range orow {
					orow[j] = activate(orow[j]+brow[j], act)
				}
			} else {
				for j := range orow {
					orow[j] = activate(orow[j], act)
				}
			}
		}
	}
}

// axpy4 folds rows [k0, k1) of the n-column panel starting at column j0 into
// orow: orow[j] += Σ_k arow[k]·panel[k][j0+j], four k terms per pass.
//
//calloc:noalloc
func axpy4(orow, arow, bdata []float64, n, k0, k1, j0 int) {
	w := len(orow)
	k := k0
	for ; k+3 < k1; k += 4 {
		a0, a1, a2, a3 := arow[k], arow[k+1], arow[k+2], arow[k+3]
		if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
			continue
		}
		if useAVX2 {
			_ = bdata[(k+3)*n+j0+w-1]
			axpy4F64AVX2(&orow[0], &bdata[k*n+j0], n, w, a0, a1, a2, a3)
			continue
		}
		b0 := bdata[k*n+j0 : k*n+j0+w]
		b1 := bdata[(k+1)*n+j0 : (k+1)*n+j0+w]
		b2 := bdata[(k+2)*n+j0 : (k+2)*n+j0+w]
		b3 := bdata[(k+3)*n+j0 : (k+3)*n+j0+w]
		for j := range orow {
			orow[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
		}
	}
	for ; k < k1; k++ {
		av := arow[k]
		if av == 0 {
			continue
		}
		brow := bdata[k*n+j0 : k*n+j0+w]
		for j, bv := range brow {
			orow[j] += av * bv
		}
	}
}

// mulTRows computes rows [lo, hi) of dst = a·bᵀ: pure dot products between
// rows of a and rows of b, tiled so a blockJ-row panel of b is reused across
// the whole shard. With AVX2 four columns at a time go through
// dot4x4F64AVX2, the rest through dot4.
//
//calloc:noalloc
func mulTRows(dst, a, b *Matrix, lo, hi int) {
	n, kDim := dst.Cols, a.Cols
	quads := kDim / 4
	for j0 := 0; j0 < n; j0 += blockJ {
		j1 := min(j0+blockJ, n)
		for i := lo; i < hi; i++ {
			arow := a.Data[i*kDim : (i+1)*kDim]
			orow := dst.Data[i*n : (i+1)*n]
			j := j0
			if useAVX2 && quads > 0 {
				for ; j+3 < j1; j += 4 {
					dot4x4(orow[j:j+4], arow, b.Data[j*kDim:(j+4)*kDim], quads)
				}
			}
			for ; j < j1; j++ {
				orow[j] = dot4(arow, b.Data[j*kDim:(j+1)*kDim])
			}
		}
	}
}

// dot4x4 sets out[c] = dot4(x, rows[c·len(x):(c+1)·len(x)]) for c in [0, 4):
// the quads in assembly, then the k%4 tail added here in ascending k, as
// dot4 adds it.
//
//calloc:noalloc
func dot4x4(out, x, rows []float64, quads int) {
	kDim := len(x)
	rows = rows[:4*kDim]
	out = out[:4]
	dot4x4F64AVX2(&out[0], &x[0], &rows[0], kDim, quads)
	for k := 4 * quads; k < kDim; k++ {
		for c := range out {
			out[c] += x[k] * rows[c*kDim+k]
		}
	}
}

// dot4 is the 4-wide unrolled inner product with independent accumulators.
//
//calloc:noalloc
func dot4(x, y []float64) float64 {
	y = y[:len(x)]
	var s0, s1, s2, s3 float64
	k := 0
	for ; k+3 < len(x); k += 4 {
		s0 += x[k] * y[k]
		s1 += x[k+1] * y[k+1]
		s2 += x[k+2] * y[k+2]
		s3 += x[k+3] * y[k+3]
	}
	s := (s0 + s1) + (s2 + s3)
	for ; k < len(x); k++ {
		s += x[k] * y[k]
	}
	return s
}

// tMulRows computes rows [lo, hi) of dst = aᵀ·b — output row i is the i-th
// column of a. The k loop stays outermost so b is streamed row-contiguously;
// four b rows are folded into each pass over a destination row.
//
//calloc:noalloc
func tMulRows(dst, a, b *Matrix, lo, hi int) {
	n := b.Cols
	for i := lo; i < hi; i++ {
		orow := dst.Data[i*n : (i+1)*n]
		for j := range orow {
			orow[j] = 0
		}
	}
	if n == 0 {
		return
	}
	kDim := a.Rows
	k := 0
	for ; k+3 < kDim; k += 4 {
		a0 := a.Data[k*a.Cols : (k+1)*a.Cols]
		a1 := a.Data[(k+1)*a.Cols : (k+2)*a.Cols]
		a2 := a.Data[(k+2)*a.Cols : (k+3)*a.Cols]
		a3 := a.Data[(k+3)*a.Cols : (k+4)*a.Cols]
		b0 := b.Data[k*n : (k+1)*n]
		b1 := b.Data[(k+1)*n : (k+2)*n]
		b2 := b.Data[(k+2)*n : (k+3)*n]
		b3 := b.Data[(k+3)*n : (k+4)*n]
		for i := lo; i < hi; i++ {
			c0, c1, c2, c3 := a0[i], a1[i], a2[i], a3[i]
			if c0 == 0 && c1 == 0 && c2 == 0 && c3 == 0 {
				continue
			}
			orow := dst.Data[i*n : (i+1)*n]
			if useAVX2 {
				axpy4F64AVX2(&orow[0], &b0[0], n, n, c0, c1, c2, c3)
				continue
			}
			for j := range orow {
				orow[j] += c0*b0[j] + c1*b1[j] + c2*b2[j] + c3*b3[j]
			}
		}
	}
	for ; k < kDim; k++ {
		arow := a.Data[k*a.Cols : (k+1)*a.Cols]
		brow := b.Data[k*n : (k+1)*n]
		for i := lo; i < hi; i++ {
			av := arow[i]
			if av == 0 {
				continue
			}
			orow := dst.Data[i*n : (i+1)*n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}
