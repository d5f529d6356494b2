package mat

import (
	"fmt"
	"math"
)

// SoftmaxRow writes the numerically-stable softmax of src into dst.
// dst and src may alias. Panics if lengths differ.
func SoftmaxRow(dst, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("mat: SoftmaxRow length mismatch %d vs %d", len(dst), len(src)))
	}
	if len(src) == 0 {
		return
	}
	mx := src[0]
	for _, v := range src[1:] {
		if v > mx {
			mx = v
		}
	}
	var sum float64
	for i, v := range src {
		e := math.Exp(v - mx)
		dst[i] = e
		sum += e
	}
	inv := 1 / sum
	for i := range dst {
		dst[i] *= inv
	}
}

// Softmax returns a new matrix whose rows are the softmax of m's rows.
func Softmax(m *Matrix) *Matrix {
	out := New(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		SoftmaxRow(out.Row(i), m.Row(i))
	}
	return out
}

// LogSumExp returns log(Σ exp(x_i)) computed stably.
func LogSumExp(x []float64) float64 {
	if len(x) == 0 {
		return math.Inf(-1)
	}
	mx := x[0]
	for _, v := range x[1:] {
		if v > mx {
			mx = v
		}
	}
	if math.IsInf(mx, -1) {
		return mx
	}
	var s float64
	for _, v := range x {
		s += math.Exp(v - mx)
	}
	return mx + math.Log(s)
}

// ArgMax returns the index of the largest element of x (first on ties).
// Returns -1 for an empty slice.
func ArgMax(x []float64) int {
	if len(x) == 0 {
		return -1
	}
	best, bi := x[0], 0
	for i, v := range x[1:] {
		if v > best {
			best, bi = v, i+1
		}
	}
	return bi
}

// EuclideanDistance returns ‖a−b‖₂.
func EuclideanDistance(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: EuclideanDistance length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i, v := range a {
		d := v - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Clamp returns v limited to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
