package mat

import "sync"

// The float32 product kernel serves both reduced-precision snapshots (see
// precision.go for the formats). A float32 snapshot hands it its panels; an
// int8 snapshot is dequantized first, q8[k][j]·scale[j] into a pooled float32
// panel, so int8 is a storage format and every reduced-precision product
// computes in float32. The kernel mirrors fusedMulRows' tiling — j0/k0
// blocked panels reused across every row, then one epilogue pass — but
// accumulates in float32 and only widens to the float64 destination in the
// epilogue. Activations arrive as float64 rows and are converted into pooled
// scratch once per product, so the steady-state serving path stays at
// 0 allocs/op.

// quantScratch holds the per-product scratch of the reduced-precision
// products: the dequantized int8 panel, the float32 activation rows and the
// float32 accumulators. Recycled through quantScratchPool; all slices are
// length-checked per use.
type quantScratch struct {
	w32   []float32 // int8 weights dequantized to float32 (int8 products)
	af32  []float32 // float32 activation rows
	acc32 []float32 // float32 accumulators
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

// dequantize widens p's int8 weights into s.w32 and returns it: each weight
// is float32(q8[k][j])·scale[j], rounded once to float32, the panel a
// float32 snapshot of the same values would hold.
//
//calloc:noalloc
func (s *quantScratch) dequantize(p *Packed) []float32 {
	s.w32 = growF32(s.w32, len(p.q8)) //calloc:allow pool-backed scratch; grows only on the first larger snapshot
	cols := p.cols
	scale := p.scale[:cols]
	for k := 0; k < p.rows; k++ {
		q := p.q8[k*cols : (k+1)*cols]
		w := s.w32[k*cols : (k+1)*cols]
		for j, v := range q {
			w[j] = float32(v) * scale[j]
		}
	}
	return s.w32
}

// fusedMulRowsF32 computes dst = act(a·W + bias) for a row-major float32
// panel W (a.Cols × dst.Cols): activations converted to float32 once,
// products accumulated in float32, widened to float64 in the fused epilogue.
// s supplies the activation and accumulator scratch. With AVX2 the
// rows&^3 × n&^15 block runs through the register-blocked 4×16 tile; the
// remainder rows and columns (everything, without AVX2) take the
// cache-blocked axpy4F32 passes. Both sum each element in ascending k with
// the same roundings, so the split never changes a bit of the result.
//
//calloc:noalloc
func fusedMulRowsF32(dst, a *Matrix, w []float32, s *quantScratch, bias []float64, act Activation) {
	n, kDim, rows := dst.Cols, a.Cols, a.Rows
	if n == 0 {
		return
	}
	s.af32 = growF32(s.af32, rows*kDim) //calloc:allow pool-backed scratch; grows only on the first oversized batch
	s.acc32 = growF32(s.acc32, rows*n)  //calloc:allow pool-backed scratch; grows only on the first oversized batch
	aw, acc := s.af32, s.acc32
	for i, v := range a.Data[:rows*kDim] {
		aw[i] = float32(v)
	}
	tileRows, tileCols := 0, 0
	if useAVX2 && kDim > 0 {
		tileRows, tileCols = rows&^3, n&^15
	}
	for r := 0; r < tileRows; r += 4 {
		for j := 0; j < tileCols; j += 16 {
			tileF32AVX2(&acc[r*n+j], n, &aw[r*kDim], kDim, &w[j], n, kDim)
		}
	}
	axpyRowsF32(acc, aw, w, n, kDim, 0, tileRows, tileCols)
	axpyRowsF32(acc, aw, w, n, kDim, tileRows, rows, 0)
	for r := 0; r < rows; r++ {
		orow := dst.Data[r*n : (r+1)*n]
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
