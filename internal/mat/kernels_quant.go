package mat

import (
	"math"
	"sync"
)

// Reduced-precision inner kernels for Packed snapshots (see precision.go for
// the formats). Both kernels mirror fusedMulRows' tiling — j0/k0 blocked
// panels reused across every row of the shard, epilogue per destination tile
// — but accumulate in the snapshot's native width (float32, or int32 for
// int8 weights) and only widen to the float64 destination in the epilogue.
// The inner loops are written over contiguous sub-slices with the 4-wide
// axpy unroll so the backend can keep them in registers; the real win on
// this workload is bandwidth (half / one-eighth the weight bytes streamed
// per query), which is what the single-query path is bound by.
//
// Activations arrive as float64 rows and are converted (f32) or dynamically
// quantized (int8, per-row symmetric scale) into pooled scratch once per
// kernel call, so the steady-state serving path stays at 0 allocs/op.

// quantScratch holds the per-call scratch of the reduced-precision kernels:
// converted activation rows and native-width accumulator tiles. Recycled
// through quantScratchPool; all slices are length-checked per use.
type quantScratch struct {
	af32  []float32 // float32 activation rows (f32 kernel)
	acc32 []float32 // float32 accumulators (f32 kernel)

	aq8      []int8    // int8 activation rows (int8 kernel)
	rowScale []float32 // per-activation-row symmetric scales (int8 kernel)
	acc64i   []int32   // int32 accumulators (int8 kernel)
}

var quantScratchPool = sync.Pool{
	New: func() any { return &quantScratch{} },
}

func growF32(buf []float32, n int) []float32 {
	if cap(buf) < n {
		return make([]float32, n)
	}
	return buf[:n]
}

func growI8(buf []int8, n int) []int8 {
	if cap(buf) < n {
		return make([]int8, n)
	}
	return buf[:n]
}

func growI32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

// fusedMulRowsF32 computes rows [lo, hi) of dst = act(a·P + bias) for a
// float32 snapshot P: activations converted to float32 once, products
// accumulated in float32, widened to float64 in the fused epilogue. With
// AVX2 the rows&^3 × n&^15 block runs through the register-blocked 4×16 tile;
// the remainder rows and columns (everything, without AVX2) take the
// cache-blocked axpy4F32 passes. Both sum each element in ascending k with
// the same roundings, so the split never changes a bit of the result.
//
//calloc:noalloc
func fusedMulRowsF32(dst, a *Matrix, p *Packed, bias []float64, act Activation, lo, hi int) {
	n, kDim := dst.Cols, a.Cols
	if n == 0 {
		return
	}
	rows := hi - lo
	s := quantScratchPool.Get().(*quantScratch)
	s.af32 = growF32(s.af32, rows*kDim) //calloc:allow pool-backed scratch; grows only on the first oversized batch
	s.acc32 = growF32(s.acc32, rows*n)  //calloc:allow pool-backed scratch; grows only on the first oversized batch
	aw, acc := s.af32, s.acc32
	for r := 0; r < rows; r++ {
		arow := a.Data[(lo+r)*kDim : (lo+r+1)*kDim]
		frow := aw[r*kDim : (r+1)*kDim]
		for k, v := range arow {
			frow[k] = float32(v)
		}
	}
	tileRows, tileCols := 0, 0
	if useAVX2 && kDim > 0 {
		tileRows, tileCols = rows&^3, n&^15
	}
	for r := 0; r < tileRows; r += 4 {
		for j := 0; j < tileCols; j += 16 {
			tileF32AVX2(&acc[r*n+j], n, &aw[r*kDim], kDim, &p.f32[j], n, kDim)
		}
	}
	axpyRowsF32(acc, aw, p.f32, n, kDim, 0, tileRows, tileCols)
	axpyRowsF32(acc, aw, p.f32, n, kDim, tileRows, rows, 0)
	for r := 0; r < rows; r++ {
		orow := dst.Data[(lo+r)*n : (lo+r+1)*n]
		crow := acc[r*n : (r+1)*n]
		if bias != nil {
			for j := range orow {
				orow[j] = activate(float64(crow[j])+bias[j], act)
			}
		} else {
			for j := range orow {
				orow[j] = activate(float64(crow[j]), act)
			}
		}
	}
	quantScratchPool.Put(s)
}

// axpyRowsF32 computes columns [jStart, n) of accumulator rows [r0, r1)
// outright: acc[r][j] = Σ_k aw[r][k]·panel[k][j], through axpy4F32 over
// cache-blocked (blockK × blockN) panels reused across the rows.
//
//calloc:noalloc
func axpyRowsF32(acc, aw, panel []float32, n, kDim, r0, r1, jStart int) {
	for r := r0; r < r1; r++ {
		crow := acc[r*n+jStart : (r+1)*n]
		for j := range crow {
			crow[j] = 0
		}
	}
	for j0 := jStart; j0 < n; j0 += blockN {
		j1 := min(j0+blockN, n)
		for k0 := 0; k0 < kDim; k0 += blockK {
			k1 := min(k0+blockK, kDim)
			for r := r0; r < r1; r++ {
				axpy4F32(acc[r*n+j0:r*n+j1], aw[r*kDim:(r+1)*kDim], panel, n, k0, k1, j0)
			}
		}
	}
}

// axpy4F32 is axpy4 over float32 panels: orow[j] += Σ_k arow[k]·panel[k][j0+j]
// for k in [k0, k1), four terms per pass, float32 accumulation throughout.
// On amd64 the quad passes run through the SSE kernel (4 lanes per
// instruction); elsewhere the scalar unroll below is the whole story.
//
//calloc:noalloc
func axpy4F32(orow, arow []float32, bdata []float32, n, k0, k1, j0 int) {
	w := len(orow)
	if w == 0 {
		return
	}
	k := k0
	if haveAxpy4F32SSE {
		var x [4]float32
		for ; k+3 < k1; k += 4 {
			x[0], x[1], x[2], x[3] = arow[k], arow[k+1], arow[k+2], arow[k+3]
			if x[0] == 0 && x[1] == 0 && x[2] == 0 && x[3] == 0 {
				continue
			}
			axpy4F32SSE(&orow[0], &bdata[k*n+j0], n, &x, w)
		}
	}
	for ; k+3 < k1; k += 4 {
		a0, a1, a2, a3 := arow[k], arow[k+1], arow[k+2], arow[k+3]
		if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
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

// fusedMulRowsI8 computes rows [lo, hi) of dst = act(a·P + bias) for an int8
// snapshot P. Each activation row is quantized on the fly with its own
// symmetric scale (rowScale = maxabs/127), dot products accumulate in int32,
// and the epilogue dequantizes with rowScale·colScale before the fused bias
// and activation. int32 cannot overflow for any realistic inner dimension:
// |q| ≤ 127 on both sides, so kDim up to 2³¹/127² ≈ 133k is safe — orders of
// magnitude above CALLOC layer widths.
//
//calloc:noalloc
func fusedMulRowsI8(dst, a *Matrix, p *Packed, bias []float64, act Activation, lo, hi int) {
	n, kDim := dst.Cols, a.Cols
	if n == 0 {
		return
	}
	rows := hi - lo
	s := quantScratchPool.Get().(*quantScratch)
	s.aq8 = growI8(s.aq8, rows*kDim)       //calloc:allow pool-backed scratch; grows only on the first oversized batch
	s.rowScale = growF32(s.rowScale, rows) //calloc:allow pool-backed scratch; grows only on the first oversized batch
	s.acc64i = growI32(s.acc64i, rows*n)   //calloc:allow pool-backed scratch; grows only on the first oversized batch
	aq, rs, acc := s.aq8, s.rowScale, s.acc64i
	for r := 0; r < rows; r++ {
		arow := a.Data[(lo+r)*kDim : (lo+r+1)*kDim]
		rs[r] = quantizeRowI8(aq[r*kDim:(r+1)*kDim], arow)
	}
	for i := range acc {
		acc[i] = 0
	}
	for j0 := 0; j0 < n; j0 += blockN {
		j1 := min(j0+blockN, n)
		for k0 := 0; k0 < kDim; k0 += blockK {
			k1 := min(k0+blockK, kDim)
			for r := 0; r < rows; r++ {
				axpy4I8(acc[r*n+j0:r*n+j1], aq[r*kDim:(r+1)*kDim], p.q8, n, k0, k1, j0)
			}
		}
		for r := 0; r < rows; r++ {
			orow := dst.Data[(lo+r)*n+j0 : (lo+r)*n+j1]
			crow := acc[r*n+j0 : r*n+j1]
			srow := p.scale[j0:j1]
			rscale := float64(rs[r])
			if bias != nil {
				brow := bias[j0:j1]
				for j := range orow {
					orow[j] = activate(float64(crow[j])*rscale*float64(srow[j])+brow[j], act)
				}
			} else {
				for j := range orow {
					orow[j] = activate(float64(crow[j])*rscale*float64(srow[j]), act)
				}
			}
		}
	}
	quantScratchPool.Put(s)
}

// quantizeRowI8 symmetrically quantizes one float64 activation row into q and
// returns the scale (maxabs/127); q[k] = round(row[k]/scale). An all-zero row
// returns scale 0 with q zeroed.
//
//calloc:noalloc
func quantizeRowI8(q []int8, row []float64) float32 {
	maxAbs := 0.0
	for _, v := range row {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		for k := range q {
			q[k] = 0
		}
		return 0
	}
	scale := maxAbs / 127
	inv := 1 / scale
	for k, v := range row {
		q[k] = int8(math.Round(v * inv))
	}
	return float32(scale)
}

// axpy4I8 folds rows [k0, k1) of the n-column int8 panel into the int32
// accumulator row: orow[j] += Σ_k arow[k]·panel[k][j0+j], widened to int32,
// four k terms per pass.
//
//calloc:noalloc
func axpy4I8(orow []int32, arow []int8, bdata []int8, n, k0, k1, j0 int) {
	w := len(orow)
	k := k0
	for ; k+3 < k1; k += 4 {
		a0, a1, a2, a3 := int32(arow[k]), int32(arow[k+1]), int32(arow[k+2]), int32(arow[k+3])
		if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
			continue
		}
		b0 := bdata[k*n+j0 : k*n+j0+w]
		b1 := bdata[(k+1)*n+j0 : (k+1)*n+j0+w]
		b2 := bdata[(k+2)*n+j0 : (k+2)*n+j0+w]
		b3 := bdata[(k+3)*n+j0 : (k+3)*n+j0+w]
		for j := range orow {
			orow[j] += a0*int32(b0[j]) + a1*int32(b1[j]) + a2*int32(b2[j]) + a3*int32(b3[j])
		}
	}
	for ; k < k1; k++ {
		av := int32(arow[k])
		if av == 0 {
			continue
		}
		brow := bdata[k*n+j0 : k*n+j0+w]
		for j, bv := range brow {
			orow[j] += av * int32(bv)
		}
	}
}
