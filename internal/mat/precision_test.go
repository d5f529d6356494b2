package mat

import (
	"math"
	"math/rand"
	"testing"
)

func TestParsePrecision(t *testing.T) {
	cases := []struct {
		in   string
		want Precision
		err  bool
	}{
		{"", PrecFloat64, false},
		{"float64", PrecFloat64, false},
		{"float32", PrecFloat32, false},
		{"int8", PrecInt8, false},
		{"fp16", 0, true},
		{"FLOAT32", 0, true},
	}
	for _, tc := range cases {
		got, err := ParsePrecision(tc.in)
		if tc.err {
			if err == nil {
				t.Errorf("ParsePrecision(%q): want error, got %v", tc.in, got)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("ParsePrecision(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
		// String must round-trip through ParsePrecision for every spelling
		// except the empty-string default.
		if tc.in != "" && got.String() != tc.in {
			t.Errorf("Precision(%v).String() = %q, want %q", got, got.String(), tc.in)
		}
	}
	if Precision(200).Valid() {
		t.Error("Precision(200).Valid() = true")
	}
}

// expectCloseRel checks got against want elementwise with a relative
// tolerance (scaled to max(1, |want|) per element, like expectClose).
func expectCloseRel(t *testing.T, got, want *Matrix, tol float64, label string) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", label, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, v := range want.Data {
		scale := math.Abs(v)
		if scale < 1 {
			scale = 1
		}
		if math.Abs(got.Data[i]-v) > tol*scale {
			t.Fatalf("%s: element %d = %g, want %g (tol %g)", label, i, got.Data[i], v, tol)
		}
	}
}

// expectCloseFrob checks relative Frobenius-norm error — the right metric
// for int8, whose elementwise quantization noise is bounded in aggregate,
// not per element.
func expectCloseFrob(t *testing.T, got, want *Matrix, tol float64, label string) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", label, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	var errSq, refSq float64
	for i, v := range want.Data {
		d := got.Data[i] - v
		errSq += d * d
		refSq += v * v
	}
	if refSq == 0 {
		if errSq != 0 {
			t.Fatalf("%s: want all-zero result, got error norm %g", label, math.Sqrt(errSq))
		}
		return
	}
	if rel := math.Sqrt(errSq / refSq); rel > tol {
		t.Fatalf("%s: relative Frobenius error %g > %g", label, rel, tol)
	}
}

// TestPackPrecEquivalence checks the reduced-precision packed products
// against the float64 reference across every shape, sequentially and
// sharded, with and without the fused bias+ReLU epilogue. float32 must track
// the reference to accumulation precision; int8 to symmetric-quantization
// noise (a few percent in norm — the serving-level budget is meters, tested
// in internal/core).
func TestPackPrecEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, forced := range []struct {
		name             string
		workers, minSize int
	}{
		{"sequential", 1, 0},
		{"parallel", 8, 1},
	} {
		t.Run(forced.name, func(t *testing.T) {
			defer SetParallelism(SetParallelism(forced.workers))
			if forced.minSize > 0 {
				defer SetParallelThreshold(SetParallelThreshold(forced.minSize))
			}
			for _, sh := range productShapes {
				t.Run(sh.name, func(t *testing.T) {
					a := sparseMatrix(sh.m, sh.k, rng)
					b := sparseMatrix(sh.k, sh.n, rng)
					bias := make([]float64, sh.n)
					for i := range bias {
						bias[i] = rng.NormFloat64()
					}
					want := refMul(a, b)
					wantAct := refBiasAct(want, bias, ActReLU)

					pf := PackPrec(b, PrecFloat32)
					expectCloseRel(t, MulPackedInto(dirtyDst(sh.m, sh.n), a, pf), want, 1e-4, "float32 MulPackedInto")
					expectCloseRel(t, MulPackedBiasActInto(dirtyDst(sh.m, sh.n), a, pf, bias, ActReLU), wantAct, 1e-4, "float32 fused")

					pq := PackPrec(b, PrecInt8)
					expectCloseFrob(t, MulPackedInto(dirtyDst(sh.m, sh.n), a, pq), want, 0.05, "int8 MulPackedInto")
					expectCloseFrob(t, MulPackedBiasActInto(dirtyDst(sh.m, sh.n), a, pq, bias, ActReLU), wantAct, 0.08, "int8 fused")
				})
			}
		})
	}
}

// Snapshot footprints: float32 halves the float64 bytes, int8 is ≥4× smaller
// even with its float32 scale row (≈8× for any realistically wide matrix).
func TestPackedWeightBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	b := sparseMatrix(128, 61, rng)
	n := int64(128 * 61)
	f64 := PackPrec(b, PrecFloat64)
	f32 := PackPrec(b, PrecFloat32)
	i8 := PackPrec(b, PrecInt8)
	if got := f64.WeightBytes(); got != 8*n {
		t.Fatalf("float64 WeightBytes = %d, want %d", got, 8*n)
	}
	if got := f32.WeightBytes(); got != 4*n {
		t.Fatalf("float32 WeightBytes = %d, want %d", got, 4*n)
	}
	if got := i8.WeightBytes(); got != n+4*61 {
		t.Fatalf("int8 WeightBytes = %d, want %d", got, n+4*61)
	}
	if ratio := float64(f64.WeightBytes()) / float64(i8.WeightBytes()); ratio < 4 {
		t.Fatalf("int8 snapshot only %.2f× smaller than float64", ratio)
	}
	if f64.Precision() != PrecFloat64 || f32.Precision() != PrecFloat32 || i8.Precision() != PrecInt8 {
		t.Fatal("Precision() does not report the pack precision")
	}
}

// Per-output-channel symmetric quantization must be exact on exact-fit
// inputs: a one-hot matrix has column scales of 1/127 and quantizes without
// rounding error.
func TestInt8QuantizesOneHotExactly(t *testing.T) {
	b := New(6, 3)
	for i := 0; i < 6; i++ {
		b.Set(i, i%3, 1)
	}
	p := PackPrec(b, PrecInt8)
	for j := 0; j < 3; j++ {
		if got := p.scale[j]; got != float32(1.0/127.0) {
			t.Fatalf("one-hot column scale[%d] = %g, want 1/127", j, got)
		}
	}
	for i := 0; i < 6; i++ {
		for j := 0; j < 3; j++ {
			want := int8(0)
			if j == i%3 {
				want = 127
			}
			if got := p.q8[i*3+j]; got != want {
				t.Fatalf("q8[%d][%d] = %d, want %d", i, j, got, want)
			}
		}
	}
}

// The steady-state fused product must stay 0 allocs/op at every precision —
// the reduced-precision kernels draw their conversion/accumulator scratch
// from a pool.
func TestMulPackedSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool items by design; alloc bounds only hold in normal builds")
	}
	rng := rand.New(rand.NewSource(26))
	defer SetParallelism(SetParallelism(1))
	a := sparseMatrix(1, 165, rng)
	b := sparseMatrix(165, 128, rng)
	bias := make([]float64, 128)
	dst := New(1, 128)
	for _, prec := range []Precision{PrecFloat64, PrecFloat32, PrecInt8} {
		t.Run(prec.String(), func(t *testing.T) {
			p := PackPrec(b, prec)
			MulPackedBiasActInto(dst, a, p, bias, ActReLU) // warm the scratch pool
			allocs := testing.AllocsPerRun(100, func() {
				MulPackedBiasActInto(dst, a, p, bias, ActReLU)
			})
			if allocs != 0 {
				t.Fatalf("steady-state %s fused product allocates %.0f objects/op, want 0", prec, allocs)
			}
		})
	}
}

// The training-path products a·bᵀ and aᵀ·b and the sigmoid epilogue are
// 0 allocs/op into a caller-owned destination, on the AVX2 and the portable
// kernels alike.
func TestTransposedProductsZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool items by design; alloc bounds only hold in normal builds")
	}
	rng := rand.New(rand.NewSource(27))
	defer SetParallelism(SetParallelism(1))
	a := sparseMatrix(8, 33, rng)
	b := sparseMatrix(12, 33, rng)
	c := sparseMatrix(8, 12, rng)
	x := sparseMatrix(4, 8, rng)
	p := PackPrec(c, PrecFloat64)
	bias := make([]float64, 12)
	abT, aTc, act := New(8, 12), New(33, 12), New(4, 12)
	defer SetAVX2(SetAVX2(true))
	for _, avx2 := range []bool{true, false} {
		SetAVX2(avx2)
		allocs := testing.AllocsPerRun(100, func() {
			MulTInto(abT, a, b)
			TMulInto(aTc, a, c)
			MulPackedBiasActInto(act, x, p, bias, ActSigmoid)
		})
		if allocs != 0 {
			t.Fatalf("transposed products and sigmoid epilogue allocate %.0f objects/op with AVX2 %t, want 0", allocs, avx2)
		}
	}
}
