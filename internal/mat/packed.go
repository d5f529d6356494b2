package mat

import (
	"fmt"
	"math"
)

// Packed is an immutable snapshot of a weight matrix prepared for the fused
// inference GEMMs. The layout choice is empirical: this package's product
// kernel is axpy-style (it streams b's rows contiguously and revisits an
// L1-resident destination tile), and on the target hardware that formulation
// beats a column-major dot-product formulation at every CALLOC batch size,
// single queries included (see BenchmarkMatMulPackedShapes) — so Packed
// stores the weights as row-major panels and the win comes from the
// bias+activation epilogue fused into the kernel's tile loop. A snapshot is
// never written after PackPrec returns: it does not follow later changes to
// its source, and any number of goroutines may multiply against it.
//
// A snapshot carries a Precision fixed at construction: float64 keeps a
// plain copy, float32 and int8 quantize once at pack time (per-output-channel
// symmetric scales for int8), so only the serving path ever sees reduced
// precision — the source matrix, training, and checkpoints stay float64.
// int8 is a storage format only: each product dequantizes the int8 panels to
// float32 scratch and runs the float32 kernel, so an int8 snapshot computes
// exactly what a float32 snapshot of its dequantized weights would.
type Packed struct {
	prec       Precision
	rows, cols int

	m     Matrix    // float64 row-major snapshot (PrecFloat64); header owned by p
	f32   []float32 // float32 row-major panels (PrecFloat32)
	q8    []int8    // int8 row-major panels (PrecInt8)
	scale []float32 // per-output-column symmetric scales (PrecInt8), len == cols
}

// PackPrec returns a packed copy of b at the given precision, quantizing
// once now for int8/float32.
func PackPrec(b *Matrix, prec Precision) *Packed {
	if !prec.Valid() {
		panic(fmt.Sprintf("mat: PackPrec: invalid precision %d", prec))
	}
	n := b.Rows * b.Cols
	p := &Packed{prec: prec, rows: b.Rows, cols: b.Cols}
	switch prec {
	case PrecFloat64:
		p.m = Matrix{Rows: b.Rows, Cols: b.Cols, Data: make([]float64, n)}
		copy(p.m.Data, b.Data)
	case PrecFloat32:
		p.f32 = make([]float32, n)
		for i, v := range b.Data {
			p.f32[i] = float32(v)
		}
	case PrecInt8:
		p.q8 = make([]int8, n)
		p.scale = make([]float32, b.Cols)
		quantizeColumns(p.q8, p.scale, b)
	}
	return p
}

// quantizeColumns fills q (row-major, b's shape) with per-output-channel
// symmetric int8 weights and scale with one float32 scale per column:
// scale[j] = maxabs(column j)/127, q[k][j] = round(b[k][j]/scale[j]). An
// all-zero column gets scale 0 and zero weights. Two row-major passes keep
// the pack cache-friendly; packing runs once per hand-over, off the serving
// path.
func quantizeColumns(q []int8, scale []float32, b *Matrix) {
	for j := range scale {
		scale[j] = 0
	}
	cols := b.Cols
	for i := 0; i < b.Rows; i++ {
		row := b.Data[i*cols : (i+1)*cols]
		for j, v := range row {
			if a := float32(math.Abs(v)); a > scale[j] {
				scale[j] = a
			}
		}
	}
	for j, mx := range scale {
		scale[j] = mx / 127
	}
	for i := 0; i < b.Rows; i++ {
		row := b.Data[i*cols : (i+1)*cols]
		qrow := q[i*cols : (i+1)*cols]
		for j, v := range row {
			s := scale[j]
			if s == 0 {
				qrow[j] = 0
				continue
			}
			qrow[j] = int8(math.Round(v / float64(s)))
		}
	}
}

// Rows returns the row count of the source matrix.
func (p *Packed) Rows() int { return p.rows }

// Cols returns the column count of the source matrix.
func (p *Packed) Cols() int { return p.cols }

// Precision returns the snapshot's element precision.
func (p *Packed) Precision() Precision { return p.prec }

// WeightBytes returns the resident size of the snapshot's weight storage
// (panels plus scale row), the footprint /v1/models reports per model.
func (p *Packed) WeightBytes() int64 {
	switch p.prec {
	case PrecFloat32:
		return int64(len(p.f32)) * 4
	case PrecInt8:
		return int64(len(p.q8)) + int64(len(p.scale))*4
	default:
		return int64(len(p.m.Data)) * 8
	}
}

// Activation selects the element-wise epilogue fused into the packed and
// bias-fused products. Keeping it an enum (rather than a func value) lets the
// kernels inline the epilogue into the pass that materialises each output
// element.
type Activation int

const (
	// ActIdentity applies no activation.
	ActIdentity Activation = iota
	// ActReLU applies max(0, v).
	ActReLU
	// ActTanh applies tanh(v).
	ActTanh
	// ActSigmoid applies the numerically stable logistic function.
	ActSigmoid
)

// activate applies the selected activation to one value.
//
//calloc:noalloc
func activate(v float64, act Activation) float64 {
	switch act {
	case ActReLU:
		if v > 0 {
			return v
		}
		return 0
	case ActTanh:
		return math.Tanh(v)
	case ActSigmoid:
		return Sigmoid(v)
	default:
		return v
	}
}

// Sigmoid is the numerically stable logistic function 1/(1+e^−v): the
// two-branch form never exponentiates a positive argument, so it cannot
// overflow to ∞ (and then NaN) for large |v| the way the naive 1/(1+exp(−v))
// does for very negative v.
//
//calloc:noalloc
func Sigmoid(v float64) float64 {
	if v >= 0 {
		return 1 / (1 + math.Exp(-v))
	}
	e := math.Exp(v)
	return e / (1 + e)
}

// MulPackedInto computes a·B into dst (allocating it when nil) for a packed
// operand B, and returns dst. It runs inline on the calling goroutine at any
// size: serving parallelism is the engine's workers, one batch each.
// Reduced-precision snapshots take the float32 kernel (kernels_quant.go).
// dst must not alias a.
func MulPackedInto(dst, a *Matrix, b *Packed) *Matrix {
	return mulPacked(dst, a, b, nil, ActIdentity, "MulPackedInto")
}

// MulPackedBiasActInto computes act(a·B + bias) into dst (allocating it when
// nil) and returns dst: the bias row-vector add and the activation run while
// each destination tile is still cache-hot from the product, instead of as
// separate AddRowVector and Apply passes over the full result. bias may be
// nil to skip the add. dst must not alias a.
func MulPackedBiasActInto(dst, a *Matrix, b *Packed, bias []float64, act Activation) *Matrix {
	return mulPacked(dst, a, b, bias, act, "MulPackedBiasActInto")
}

func mulPacked(dst, a *Matrix, p *Packed, bias []float64, act Activation, op string) *Matrix {
	if a.Cols != p.rows {
		panic(fmt.Sprintf("mat: %s inner mismatch %dx%d · %dx%d", op, a.Rows, a.Cols, p.rows, p.cols))
	}
	if bias != nil && len(bias) != p.cols {
		panic(fmt.Sprintf("mat: %s bias length %d != cols %d", op, len(bias), p.cols))
	}
	dst = prepDst(dst, a.Rows, p.cols, op)
	if p.prec == PrecFloat64 {
		fusedMulRows(dst, a, &p.m, bias, act, 0, a.Rows)
		return dst
	}
	s := quantScratchPool.Get().(*quantScratch)
	w := p.f32
	if p.prec == PrecInt8 {
		w = s.dequantize(p)
	}
	fusedMulRowsF32(dst, a, w, s, bias, act)
	quantScratchPool.Put(s)
	return dst
}
