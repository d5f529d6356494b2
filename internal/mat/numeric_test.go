package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSoftmaxRowSumsToOne(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(20)
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64() * 10
		}
		out := make([]float64, n)
		SoftmaxRow(out, x)
		var sum float64
		for _, v := range out {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
			sum += v
		}
		return almostEqual(sum, 1, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxShiftInvariance(t *testing.T) {
	x := []float64{1, 2, 3}
	a := make([]float64, 3)
	b := make([]float64, 3)
	SoftmaxRow(a, x)
	SoftmaxRow(b, []float64{101, 102, 103})
	for i := range a {
		if !almostEqual(a[i], b[i], 1e-12) {
			t.Fatalf("softmax not shift invariant: %v vs %v", a, b)
		}
	}
}

func TestSoftmaxLargeValuesStable(t *testing.T) {
	out := make([]float64, 2)
	SoftmaxRow(out, []float64{1000, 1000})
	if math.IsNaN(out[0]) || !almostEqual(out[0], 0.5, 1e-12) {
		t.Fatalf("softmax overflow: %v", out)
	}
}

func TestLogSumExp(t *testing.T) {
	got := LogSumExp([]float64{0, 0})
	if !almostEqual(got, math.Log(2), 1e-12) {
		t.Fatalf("LogSumExp([0,0]) = %g, want ln2", got)
	}
	if got := LogSumExp(nil); !math.IsInf(got, -1) {
		t.Fatalf("LogSumExp(nil) = %g, want -Inf", got)
	}
	// Stability: huge inputs must not overflow.
	if got := LogSumExp([]float64{1e4, 1e4}); math.IsInf(got, 1) || math.IsNaN(got) {
		t.Fatalf("LogSumExp overflowed: %g", got)
	}
}

func TestArgMax(t *testing.T) {
	cases := []struct {
		in   []float64
		want int
	}{
		{nil, -1},
		{[]float64{3}, 0},
		{[]float64{1, 5, 2}, 1},
		{[]float64{5, 5, 2}, 0}, // first wins on ties
		{[]float64{-3, -1, -2}, 1},
	}
	for _, c := range cases {
		if got := ArgMax(c.in); got != c.want {
			t.Errorf("ArgMax(%v) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestEuclideanDistance(t *testing.T) {
	if d := EuclideanDistance([]float64{0, 0}, []float64{3, 4}); !almostEqual(d, 5, 1e-12) {
		t.Fatalf("distance = %g, want 5", d)
	}
	// Symmetry + identity properties.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(10)
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i], b[i] = r.NormFloat64(), r.NormFloat64()
		}
		return almostEqual(EuclideanDistance(a, b), EuclideanDistance(b, a), 1e-12) &&
			EuclideanDistance(a, a) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Fatal("Clamp misbehaves")
	}
}

// TestDot checks the unrolled dot kernel behind MulT, on a length that takes
// both its four-wide body and its tail.
func TestDot(t *testing.T) {
	if got := dot4([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("dot4 = %g, want 32", got)
	}
	x := []float64{1, 2, 3, 4, 5, 6, 7}
	if got := dot4(x, x); got != 140 {
		t.Fatalf("dot4 = %g, want 140", got)
	}
}

func TestCholeskyReconstruction(t *testing.T) {
	// A = Bᵀ·B + n·I is SPD for any B.
	rng := rand.New(rand.NewSource(7))
	b := randomMatrix(rng, 6, 6)
	a := TMul(b, b)
	for i := 0; i < 6; i++ {
		a.Data[i*6+i] += 6
	}
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	recon := MulT(l, l)
	matricesAlmostEqual(t, recon, a, 1e-9)
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, −1
	if _, err := Cholesky(a); err == nil {
		t.Fatal("expected ErrNotPositiveDefinite")
	}
}

func TestCholeskyRejectsNonSquare(t *testing.T) {
	if _, err := Cholesky(New(2, 3)); err == nil {
		t.Fatal("expected error for non-square input")
	}
}

func TestSolveCholeskyKnownSystem(t *testing.T) {
	a := FromRows([][]float64{{4, 2}, {2, 3}})
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	x := SolveCholesky(l, []float64{10, 8})
	// Verify a·x = b.
	b0 := 4*x[0] + 2*x[1]
	b1 := 2*x[0] + 3*x[1]
	if !almostEqual(b0, 10, 1e-9) || !almostEqual(b1, 8, 1e-9) {
		t.Fatalf("solve gave %v (A·x = [%g %g])", x, b0, b1)
	}
}

// Property: Cholesky then SolveCholesky — the GP classifier's solve —
// actually solves A·x = b for random SPD A.
func TestSolveSPDProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(8)
		b := randomMatrix(r, n, n)
		a := TMul(b, b)
		for i := 0; i < n; i++ {
			a.Data[i*n+i] += float64(n)
		}
		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = r.NormFloat64()
		}
		l, err := Cholesky(a)
		if err != nil {
			return false
		}
		x := SolveCholesky(l, rhs)
		for i := 0; i < n; i++ {
			var s float64
			for j := 0; j < n; j++ {
				s += a.At(i, j) * x[j]
			}
			if !almostEqual(s, rhs[i], 1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
