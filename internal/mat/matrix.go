// Package mat provides the small dense linear-algebra kernel used by every
// model in this repository: row-major float64 matrices, the products and
// element-wise operations needed for neural-network forward/backward passes,
// and a Cholesky solver for the Gaussian-process classifier.
//
// The package is deliberately minimal (no views, no pivoting) but every
// operation checks its dimensions and panics with a descriptive message on
// misuse; shape errors are programming errors, not runtime conditions.
package mat

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix of float64 values.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// New returns a zero-initialised r×c matrix.
func New(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimensions %dx%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// FromSlice wraps data (row-major, length r*c) in a Matrix without copying.
func FromSlice(r, c int, data []float64) *Matrix {
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: FromSlice length %d != %d*%d", len(data), r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: data}
}

// FromRows builds a matrix by copying the given equal-length rows.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	c := len(rows[0])
	m := New(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			panic(fmt.Sprintf("mat: FromRows ragged row %d: %d != %d", i, len(row), c))
		}
		copy(m.Data[i*c:(i+1)*c], row)
	}
	return m
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set stores v at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns the i-th row as a slice sharing the matrix's storage.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	s := fmt.Sprintf("Matrix(%dx%d)[", m.Rows, m.Cols)
	for i := 0; i < m.Rows && i < 4; i++ {
		s += fmt.Sprintf("%v", m.Row(i))
	}
	if m.Rows > 4 {
		s += "..."
	}
	return s + "]"
}

func sameShape(a, b *Matrix, op string) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// Mul returns the matrix product a·b. Large products are sharded across
// goroutines; see the parallelism knob in parallel.go.
func Mul(a, b *Matrix) *Matrix { return MulInto(nil, a, b) }

// MulT returns a·bᵀ without materialising the transpose.
func MulT(a, b *Matrix) *Matrix { return MulTInto(nil, a, b) }

// TMul returns aᵀ·b without materialising the transpose.
func TMul(a, b *Matrix) *Matrix { return TMulInto(nil, a, b) }

// Transpose returns a new matrix mᵀ.
func (m *Matrix) Transpose() *Matrix {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Data[j*out.Cols+i] = m.Data[i*m.Cols+j]
		}
	}
	return out
}

// AddInPlace adds b into m.
func (m *Matrix) AddInPlace(b *Matrix) {
	sameShape(m, b, "AddInPlace")
	for i := range m.Data {
		m.Data[i] += b.Data[i]
	}
}

// ScaleInPlace multiplies every element of m by s.
func (m *Matrix) ScaleInPlace(s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// AddRowVector adds the 1×c row vector v to every row of m, in place.
func (m *Matrix) AddRowVector(v []float64) {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("mat: AddRowVector length %d != cols %d", len(v), m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, x := range v {
			row[j] += x
		}
	}
}

// Apply returns a new matrix with f applied to every element.
func (m *Matrix) Apply(f func(float64) float64) *Matrix {
	out := New(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = f(v)
	}
	return out
}

// AddScaledInPlace adds s·b into m (axpy).
func (m *Matrix) AddScaledInPlace(b *Matrix, s float64) {
	sameShape(m, b, "AddScaledInPlace")
	for i, v := range b.Data {
		m.Data[i] += s * v
	}
}

// MaxAbs returns the largest absolute element of m (0 for an empty matrix).
func (m *Matrix) MaxAbs() float64 {
	var mx float64
	for _, v := range m.Data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}
