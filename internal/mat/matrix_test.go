package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func matricesAlmostEqual(t *testing.T, a, b *Matrix, tol float64) {
	t.Helper()
	if a.Rows != b.Rows || a.Cols != b.Cols {
		t.Fatalf("shape mismatch: %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	for i, v := range a.Data {
		if !almostEqual(v, b.Data[i], tol) {
			t.Fatalf("element %d: %g != %g", i, v, b.Data[i])
		}
	}
}

func randomMatrix(rng *rand.Rand, r, c int) *Matrix {
	m := New(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestMulKnownProduct(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	got := Mul(a, b)
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	matricesAlmostEqual(t, got, want, 0)
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomMatrix(rng, 4, 4)
	id := New(4, 4)
	for i := 0; i < 4; i++ {
		id.Set(i, i, 1)
	}
	matricesAlmostEqual(t, Mul(a, id), a, 1e-12)
	matricesAlmostEqual(t, Mul(id, a), a, 1e-12)
}

func TestMulTMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomMatrix(rng, 3, 5)
	b := randomMatrix(rng, 4, 5)
	matricesAlmostEqual(t, MulT(a, b), Mul(a, b.Transpose()), 1e-12)
}

func TestTMulMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomMatrix(rng, 5, 3)
	b := randomMatrix(rng, 5, 4)
	matricesAlmostEqual(t, TMul(a, b), Mul(a.Transpose(), b), 1e-12)
}

func TestMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on inner-dimension mismatch")
		}
	}()
	Mul(New(2, 3), New(2, 3))
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randomMatrix(rng, 6, 2)
	matricesAlmostEqual(t, a.Transpose().Transpose(), a, 0)
}

// add returns a+b: the reference the in-place kernels are checked against.
func add(a, b *Matrix) *Matrix {
	out := a.Clone()
	for i, v := range b.Data {
		out.Data[i] += v
	}
	return out
}

func TestAddSubRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randomMatrix(rng, 3, 3)
	b := randomMatrix(rng, 3, 3)
	m := a.Clone()
	m.AddInPlace(b)
	m.AddScaledInPlace(b, -1)
	matricesAlmostEqual(t, m, a, 1e-12)
}

func TestAddRowVector(t *testing.T) {
	m := FromRows([][]float64{{1, 1}, {2, 2}})
	m.AddRowVector([]float64{10, 20})
	want := FromRows([][]float64{{11, 21}, {12, 22}})
	matricesAlmostEqual(t, m, want, 0)
}

func TestCloneIndependence(t *testing.T) {
	a := FromRows([][]float64{{1, 2}})
	b := a.Clone()
	b.Set(0, 0, 99)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

// Property: matrix multiplication distributes over addition,
// A·(B+C) = A·B + A·C, for random small matrices.
func TestMulDistributesOverAddProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, m, p := 1+r.Intn(5), 1+r.Intn(5), 1+r.Intn(5)
		a := randomMatrix(r, n, m)
		b := randomMatrix(r, m, p)
		c := randomMatrix(r, m, p)
		left := Mul(a, add(b, c))
		right := add(Mul(a, b), Mul(a, c))
		for i := range left.Data {
			if !almostEqual(left.Data[i], right.Data[i], 1e-9) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: (A·B)ᵀ = Bᵀ·Aᵀ.
func TestMulTransposeProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, m, p := 1+r.Intn(4), 1+r.Intn(4), 1+r.Intn(4)
		a := randomMatrix(r, n, m)
		b := randomMatrix(r, m, p)
		left := Mul(a, b).Transpose()
		right := Mul(b.Transpose(), a.Transpose())
		for i := range left.Data {
			if !almostEqual(left.Data[i], right.Data[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestScaleAndNorm(t *testing.T) {
	m := FromRows([][]float64{{3, -4}})
	if got := m.MaxAbs(); got != 4 {
		t.Fatalf("MaxAbs = %g, want 4", got)
	}
	m.ScaleInPlace(2)
	if got := m.MaxAbs(); got != 8 {
		t.Fatalf("scaled MaxAbs = %g, want 8", got)
	}
}
