package mat

import (
	"fmt"
	"math/rand"
	"testing"
)

// f64TestOperand returns an r×c matrix, dense (normal entries) or
// ReLU-sparse: a third of each row's aligned quads all zero — the quads
// axpy4 skips — and half of the remaining entries zero, the rest positive.
// transpose lays the quads down the columns instead, where tMulRows looks
// for them.
func f64TestOperand(rng *rand.Rand, r, c int, sparse, transpose bool) *Matrix {
	if transpose {
		return f64TestOperand(rng, c, r, sparse, false).Transpose()
	}
	if !sparse {
		return randomMatrix(rng, r, c)
	}
	m := New(r, c)
	for i := 0; i < r; i++ {
		for q := 0; q < c; q += 4 {
			if rng.Intn(3) == 0 {
				continue
			}
			for k := q; k < min(q+4, c); k++ {
				if rng.Intn(2) == 0 {
					m.Data[i*c+k] = rng.Float64()
				}
			}
		}
	}
	return m
}

// TestF64KernelsMatchPortable: every float64 product gives the same bits
// through the AVX2 kernels as through the portable Go loops — Mul, MulT,
// TMul and the packed product with and without the fused bias+ReLU — over
// inner dimensions with every k%4 tail and around the blockK tile, output
// widths on both sides of every vector step and the blockJ tile, single,
// tile-sized and remainder row counts, dense and ReLU-sparse operands,
// sequentially and sharded.
func TestF64KernelsMatchPortable(t *testing.T) {
	if !hasAVX2 {
		t.Skip("no AVX2 on this CPU: only the portable path exists")
	}
	defer SetAVX2(true)
	defer SetParallelism(SetParallelism(0))
	defer SetParallelThreshold(SetParallelThreshold(0))
	rowsSet := []int{1, 3, 4, 5, 64, 320}
	kSet := []int{1, 2, 3, 6, 127, 128, 129, 156, 320}
	nSet := []int{1, 2, 3, 5, 7, 8, 9, 33, 64, 74, 128}
	if testing.Short() {
		rowsSet = []int{1, 5, 64}
		kSet = []int{1, 2, 3, 129, 156}
		nSet = []int{1, 3, 8, 9, 74}
	}
	rng := rand.New(rand.NewSource(41))
	for _, sharded := range []bool{false, true} {
		if sharded {
			SetParallelism(4)
			SetParallelThreshold(1)
		} else {
			SetParallelism(1)
		}
		for _, sparse := range []bool{false, true} {
			for _, rows := range rowsSet {
				for _, kDim := range kSet {
					for _, n := range nSet {
						label := fmt.Sprintf("rows=%d k=%d n=%d sparse=%t sharded=%t", rows, kDim, n, sparse, sharded)
						checkF64Products(t, rng, rows, kDim, n, sparse, label)
					}
				}
			}
		}
	}
}

// checkF64Products runs each product of one shape with the AVX2 gate on and
// off and compares the bits.
func checkF64Products(t *testing.T, rng *rand.Rand, rows, kDim, n int, sparse bool, label string) {
	t.Helper()
	a := f64TestOperand(rng, rows, kDim, sparse, false)
	b := f64TestOperand(rng, kDim, n, false, false)
	bT := f64TestOperand(rng, n, kDim, false, false)
	aT := f64TestOperand(rng, kDim, rows, sparse, true)
	p := PackPrec(b, PrecFloat64)
	bias := make([]float64, n)
	for j := range bias {
		bias[j] = rng.NormFloat64()
	}
	for _, op := range []struct {
		name string
		run  func() *Matrix
	}{
		{"Mul", func() *Matrix { return Mul(a, b) }},
		{"MulT", func() *Matrix { return MulT(a, bT) }},
		{"TMul", func() *Matrix { return TMul(aT, b) }},
		{"MulPacked", func() *Matrix { return MulPackedBiasActInto(nil, a, p, nil, ActIdentity) }},
		{"MulPackedBiasReLU", func() *Matrix { return MulPackedBiasActInto(nil, a, p, bias, ActReLU) }},
	} {
		SetAVX2(true)
		fast := op.run()
		SetAVX2(false)
		portable := op.run()
		expectSameBits(t, fast, portable, op.name+" "+label)
	}
}
