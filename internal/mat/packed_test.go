package mat

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// refBiasAct applies bias and activation to a reference product, mirroring
// the unfused AddRowVector + Apply path.
func refBiasAct(m *Matrix, bias []float64, act Activation) *Matrix {
	out := m.Clone()
	if bias != nil {
		out.AddRowVector(bias)
	}
	return out.Apply(func(v float64) float64 { return activate(v, act) })
}

func TestPackedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	b := sparseMatrix(7, 5, rng)
	p := PackPrec(b, PrecFloat64)
	if p.Rows() != 7 || p.Cols() != 5 {
		t.Fatalf("packed shape %dx%d, want 7x5", p.Rows(), p.Cols())
	}
	// The snapshot must be a copy: later source mutations stay invisible.
	b.Set(3, 2, 42)
	if p.m.At(3, 2) == 42 {
		t.Fatal("Pack aliased the source instead of copying")
	}
}

// TestMulPackedEquivalence checks the packed product against the naive
// reference across threshold-straddling shapes, from one caller and from
// several at once over one shared operand (the engine's workers share a
// serving snapshot). Packed products never shard: each call runs inline.
func TestMulPackedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, mode := range callerModes {
		t.Run(mode.name, func(t *testing.T) {
			for _, sh := range productShapes {
				t.Run(sh.name, func(t *testing.T) {
					a := sparseMatrix(sh.m, sh.k, rng)
					b := sparseMatrix(sh.k, sh.n, rng)
					want := refMul(a, b)
					p := PackPrec(b, PrecFloat64)
					for _, got := range fromCallers(mode.callers, func() *Matrix { return MulPackedInto(nil, a, p) }) {
						expectClose(t, got, want, "MulPackedInto")
					}
					for _, got := range fromCallers(mode.callers, func() *Matrix { return MulPackedInto(dirtyDst(sh.m, sh.n), a, p) }) {
						expectClose(t, got, want, "MulPackedInto dirty dst")
					}
				})
			}
		})
	}
}

// callerModes are the two ways the packed-product tests call: one caller,
// and several goroutines at once over the same operands.
var callerModes = []struct {
	name    string
	callers int
}{
	{"sequential", 1},
	{"parallel", 4},
}

// fromCallers runs product on n goroutines at once and returns each
// caller's result, for the calling test goroutine to check.
func fromCallers(n int, product func() *Matrix) []*Matrix {
	out := make([]*Matrix, n)
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = product()
		}()
	}
	wg.Wait()
	return out
}

// TestFusedEpilogueEquivalence checks the fused bias+activation products
// against the unfused AddRowVector + Apply composition for every activation.
func TestFusedEpilogueEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	acts := []struct {
		name string
		act  Activation
	}{
		{"identity", ActIdentity},
		{"relu", ActReLU},
		{"tanh", ActTanh},
		{"sigmoid", ActSigmoid},
	}
	for _, sh := range productShapes {
		a := sparseMatrix(sh.m, sh.k, rng)
		b := sparseMatrix(sh.k, sh.n, rng)
		p := PackPrec(b, PrecFloat64)
		bias := make([]float64, sh.n)
		for i := range bias {
			bias[i] = rng.NormFloat64()
		}
		ref := refMul(a, b)
		for _, tc := range acts {
			t.Run(sh.name+"/"+tc.name, func(t *testing.T) {
				want := refBiasAct(ref, bias, tc.act)
				expectClose(t, MulPackedBiasActInto(dirtyDst(sh.m, sh.n), a, p, bias, tc.act), want, "MulPackedBiasActInto")

				wantNoBias := refBiasAct(ref, nil, tc.act)
				expectClose(t, MulPackedBiasActInto(nil, a, p, nil, tc.act), wantNoBias, "MulPackedBiasActInto nil bias")
			})
		}
	}
}

func TestMulPackedShapePanics(t *testing.T) {
	a := New(2, 3)
	p := PackPrec(New(4, 5), PrecFloat64) // inner mismatch: a.Cols=3 vs p.Rows=4
	ok := PackPrec(New(3, 5), PrecFloat64)
	for _, tc := range []struct {
		name string
		call func()
	}{
		{"inner", func() { MulPackedInto(nil, a, p) }},
		{"dst", func() { MulPackedInto(New(9, 9), a, ok) }},
		{"bias", func() { MulPackedBiasActInto(nil, a, ok, make([]float64, 2), ActIdentity) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", tc.name)
				}
			}()
			tc.call()
		}()
	}
}

// TestSigmoidStable: the two-branch logistic must not overflow at extreme
// arguments (the naive 1/(1+exp(-v)) produces exp(+Inf) for very negative v).
func TestSigmoidStable(t *testing.T) {
	for _, v := range []float64{-1e4, -750, -50, -1, 0, 1, 50, 750, 1e4} {
		s := Sigmoid(v)
		if math.IsNaN(s) || s < 0 || s > 1 {
			t.Fatalf("Sigmoid(%g) = %g outside [0,1]", v, s)
		}
	}
	if s := Sigmoid(-1e4); s != 0 {
		t.Fatalf("Sigmoid(-1e4) = %g, want underflow to 0", s)
	}
	if s := Sigmoid(1e4); s != 1 {
		t.Fatalf("Sigmoid(1e4) = %g, want 1", s)
	}
	// Matches the naive form where the naive form is accurate.
	for _, v := range []float64{-30, -3, -0.5, 0, 0.5, 3, 30} {
		naive := 1 / (1 + math.Exp(-v))
		if d := math.Abs(Sigmoid(v) - naive); d > 1e-15 {
			t.Fatalf("Sigmoid(%g) = %g, naive %g (diff %g)", v, Sigmoid(v), naive, d)
		}
	}
}
