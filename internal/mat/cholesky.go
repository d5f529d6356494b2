package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotPositiveDefinite is returned by Cholesky when the input matrix is not
// (numerically) symmetric positive definite.
var ErrNotPositiveDefinite = errors.New("mat: matrix is not positive definite")

// Cholesky computes the lower-triangular factor L of a symmetric positive
// definite matrix a such that a = L·Lᵀ. The input is not modified.
func Cholesky(a *Matrix) (*Matrix, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("mat: Cholesky of non-square %dx%d matrix", a.Rows, a.Cols)
	}
	n := a.Rows
	l := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			var sum float64
			for k := 0; k < j; k++ {
				sum += l.At(i, k) * l.At(j, k)
			}
			if i == j {
				d := a.At(i, i) - sum
				if d <= 0 || math.IsNaN(d) {
					return nil, ErrNotPositiveDefinite
				}
				l.Set(i, i, math.Sqrt(d))
			} else {
				l.Set(i, j, (a.At(i, j)-sum)/l.At(j, j))
			}
		}
	}
	return l, nil
}

// SolveCholesky solves a·x = b for x given the Cholesky factor L of a
// (a = L·Lᵀ), via forward then back substitution.
func SolveCholesky(l *Matrix, b []float64) []float64 {
	n := l.Rows
	if len(b) != n {
		panic(fmt.Sprintf("mat: SolveCholesky rhs length %d != %d", len(b), n))
	}
	// Forward: L·y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		row := l.Row(i)
		for k := 0; k < i; k++ {
			s -= row[k] * y[k]
		}
		y[i] = s / row[i]
	}
	// Back: Lᵀ·x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
	return x
}
