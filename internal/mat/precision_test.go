package mat

import (
	"fmt"
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
// against the float64 reference across every shape, from one caller and
// from several at once over shared operands (their pooled row scratch must
// not leak between callers), with and without the fused bias+ReLU epilogue.
// float32 must track the reference to accumulation precision; int8 to
// symmetric-quantization noise (a few percent in norm — the serving-level
// budget is meters, tested in internal/core).
func TestPackPrecEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, mode := range callerModes {
		t.Run(mode.name, func(t *testing.T) {
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
					pq := PackPrec(b, PrecInt8)
					for _, tc := range []struct {
						label   string
						product func() *Matrix
						want    *Matrix
						check   func(t *testing.T, got, want *Matrix, tol float64, label string)
						tol     float64
					}{
						{"float32 MulPackedInto", func() *Matrix { return MulPackedInto(dirtyDst(sh.m, sh.n), a, pf) }, want, expectCloseRel, 1e-4},
						{"float32 fused", func() *Matrix { return MulPackedBiasActInto(dirtyDst(sh.m, sh.n), a, pf, bias, ActReLU) }, wantAct, expectCloseRel, 1e-4},
						{"int8 MulPackedInto", func() *Matrix { return MulPackedInto(dirtyDst(sh.m, sh.n), a, pq) }, want, expectCloseFrob, 0.05},
						{"int8 fused", func() *Matrix { return MulPackedBiasActInto(dirtyDst(sh.m, sh.n), a, pq, bias, ActReLU) }, wantAct, expectCloseFrob, 0.08},
					} {
						for _, got := range fromCallers(mode.callers, tc.product) {
							tc.check(t, got, tc.want, tc.tol, tc.label)
						}
					}
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

// TestInt8ComputesAsFloat32: int8 is a storage format. A product on an int8
// snapshot equals, bit for bit, the same product on a float32 snapshot of
// its dequantized weights q8[k][j]·scale[j], at every batch size, with and
// without the fused bias+ReLU epilogue, on the AVX2 and the portable
// kernels. The weights include an all-zero column (scale 0).
func TestInt8ComputesAsFloat32(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	const kDim, n = 165, 74
	b := randomMatrix(rng, kDim, n)
	for k := 0; k < kDim; k++ {
		b.Set(k, 5, 0)
	}
	pq := PackPrec(b, PrecInt8)
	deq := New(kDim, n)
	for i, q := range pq.q8 {
		deq.Data[i] = float64(float32(q) * pq.scale[i%n])
	}
	pf := PackPrec(deq, PrecFloat32)
	bias := make([]float64, n)
	for j := range bias {
		bias[j] = rng.NormFloat64()
	}
	defer SetAVX2(SetAVX2(true))
	for _, avx2 := range []bool{true, false} {
		SetAVX2(avx2)
		for _, rows := range []int{1, 4, 5, 64} {
			a := f32TestActivations(rng, rows, kDim)
			for _, ep := range []struct {
				bias []float64
				act  Activation
			}{{nil, ActIdentity}, {bias, ActReLU}} {
				label := fmt.Sprintf("avx2=%t r%d bias=%t", avx2, rows, ep.bias != nil)
				want := MulPackedBiasActInto(nil, a, pf, ep.bias, ep.act)
				got := MulPackedBiasActInto(dirtyDst(rows, n), a, pq, ep.bias, ep.act)
				expectSameBits(t, got, want, label)
			}
		}
	}
}

// The steady-state fused product must stay 0 allocs/op at every precision,
// at one row and at a 64-row batch, on the AVX2 and the portable kernels,
// whatever SetParallelism says — the reduced-precision products draw their
// dequantized panel, conversion and accumulator scratch from a pool, and
// packed products never shard.
func TestMulPackedSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool items by design; alloc bounds only hold in normal builds")
	}
	rng := rand.New(rand.NewSource(26))
	defer SetParallelism(SetParallelism(2))
	a := sparseMatrix(64, 165, rng)
	b := sparseMatrix(165, 128, rng)
	bias := make([]float64, 128)
	defer SetAVX2(SetAVX2(true))
	for _, prec := range []Precision{PrecFloat64, PrecFloat32, PrecInt8} {
		t.Run(prec.String(), func(t *testing.T) {
			p := PackPrec(b, prec)
			for _, avx2 := range []bool{true, false} {
				SetAVX2(avx2)
				for _, rows := range []int{1, 64} {
					x := FromSlice(rows, a.Cols, a.Data[:rows*a.Cols])
					dst := New(rows, 128)
					MulPackedBiasActInto(dst, x, p, bias, ActReLU) // warm the scratch pool
					allocs := testing.AllocsPerRun(100, func() {
						MulPackedBiasActInto(dst, x, p, bias, ActReLU)
					})
					if allocs != 0 {
						t.Fatalf("steady-state %s r%d fused product allocates %.0f objects/op with AVX2 %t, want 0", prec, rows, allocs, avx2)
					}
				}
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
