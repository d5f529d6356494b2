package nn

import (
	"math"
	"math/rand"
	"testing"

	"calloc/internal/mat"
)

func closeEnough(t *testing.T, got, want *mat.Matrix, label string) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", label, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, v := range want.Data {
		scale := math.Abs(v)
		if scale < 1 {
			scale = 1
		}
		if math.Abs(got.Data[i]-v) > 1e-12*scale {
			t.Fatalf("%s: element %d = %g, want %g", label, i, got.Data[i], v)
		}
	}
}

// inferIntoStacks covers fused Dense+activation pairs, a bare Dense, a
// leading standalone activation, and the identity eval-time layers.
func inferIntoStacks(rng *rand.Rand) map[string]*Network {
	return map[string]*Network{
		"dense_relu":    NewNetwork(NewDense("a", 9, 7, rng), &ReLU{}),
		"dense_tanh":    NewNetwork(NewDenseXavier("b", 9, 7, rng), &Tanh{}),
		"dense_sigmoid": NewNetwork(NewDenseXavier("c", 9, 7, rng), &Sigmoid{}),
		"dense_only":    NewNetwork(NewDense("d", 9, 7, rng)),
		"leading_act":   NewNetwork(&Tanh{}, NewDense("e", 9, 7, rng), &ReLU{}),
		"deep": NewNetwork(
			NewDense("f1", 9, 16, rng), &ReLU{},
			NewDropout(0.5, rng), NewGaussianNoise(0.3, rng),
			NewDense("f2", 16, 7, rng), &Sigmoid{},
		),
	}
}

// TestInferIntoMatchesInfer: the workspace path must agree with the
// allocation-per-call Infer path on every stack shape, across repeated calls
// (buffer reuse) and varying batch sizes (buffer regrowth).
func TestInferIntoMatchesInfer(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for name, net := range inferIntoStacks(rng) {
		t.Run(name, func(t *testing.T) {
			ws := NewWorkspace()
			for _, rows := range []int{1, 4, 1, 17, 3} {
				x := randMat(rng, rows, 9)
				want := net.Infer(x)
				ws.Reset()
				closeEnough(t, net.InferInto(ws, x), want, name)
			}
		})
	}
}

// TestInferIntoDoesNotMutateInput: a leading activation layer must write to
// a workspace buffer, never in place over the caller's matrix.
func TestInferIntoDoesNotMutateInput(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	net := NewNetwork(&ReLU{})
	x := randMat(rng, 3, 5)
	orig := x.Clone()
	net.InferInto(NewWorkspace(), x)
	for i, v := range orig.Data {
		if x.Data[i] != v {
			t.Fatalf("InferInto mutated input at %d: %g -> %g", i, v, x.Data[i])
		}
	}
}

// TestInferIntoZeroAllocSteadyState: after the first pass warms the buffers
// and packed views, the workspace path must not allocate.
func TestInferIntoZeroAllocSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net := NewNetwork(
		NewDense("z1", 12, 24, rng), &ReLU{},
		NewDense("z2", 24, 6, rng), &Sigmoid{},
	)
	ws := NewWorkspace()
	x := randMat(rng, 2, 12)
	if allocs := testing.AllocsPerRun(50, func() {
		ws.Reset()
		net.InferInto(ws, x)
	}); allocs != 0 {
		t.Fatalf("steady-state InferInto allocates %.0f objects/op, want 0", allocs)
	}
}

// TestPackedViewInvalidation: weight updates through every supported
// mutation path must be visible to the next packed inference.
func TestPackedViewInvalidation(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x := randMat(rng, 3, 5)

	check := func(name string, net *Network, mutate func(*Network)) {
		t.Helper()
		ws := NewWorkspace()
		net.InferInto(ws, x) // cache the packed views
		mutate(net)
		want := net.Infer(x)
		ws.Reset()
		closeEnough(t, net.InferInto(ws, x), want, name)
	}

	check("optimizer", NewNetwork(NewDense("o", 5, 4, rng), &ReLU{}), func(net *Network) {
		for _, p := range net.Params() {
			for i := range p.G.Data {
				p.G.Data[i] = rng.NormFloat64()
			}
		}
		NewSGD(0.1, 0).Step(net.Params())
	})

	check("restore", NewNetwork(NewDense("r", 5, 4, rng), &ReLU{}), func(net *Network) {
		snap := net.Snapshot()
		for i := range snap {
			for j := range snap[i] {
				snap[i][j] = rng.NormFloat64()
			}
		}
		net.Restore(snap)
	})

	check("unmarshal", NewNetwork(NewDense("u", 5, 4, rng), &ReLU{}), func(net *Network) {
		donor := NewNetwork(NewDense("u", 5, 4, rand.New(rand.NewSource(99))), &ReLU{})
		blob, err := donor.MarshalWeights()
		if err != nil {
			t.Fatal(err)
		}
		if err := net.UnmarshalWeights(blob); err != nil {
			t.Fatal(err)
		}
	})
}

// TestInferProjectedIntoMatches: the workspace attention path must agree
// with the pool-based InferProjected and with Forward.
func TestInferProjectedIntoMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ca := NewCrossAttention("att", 6, 4, rng)
	q := randMat(rng, 5, 6)
	k := randMat(rng, 11, 6)
	v := randMat(rng, 11, 3)

	want := ca.Forward(q, k, v)
	kp := ca.ProjectKeys(k)
	kpT := kp.Transpose()
	ws := NewWorkspace()
	for i := 0; i < 3; i++ { // repeated calls exercise buffer reuse
		ws.Reset()
		closeEnough(t, ca.InferProjectedInto(ws, q, kp, v), want, "InferProjectedInto")
		ws.Reset()
		closeEnough(t, ca.InferProjectedTInto(ws, q, kpT, v), want, "InferProjectedTInto")
	}

	if allocs := testing.AllocsPerRun(50, func() {
		ws.Reset()
		ca.InferProjectedInto(ws, q, kp, v)
	}); allocs != 0 {
		t.Fatalf("steady-state InferProjectedInto allocates %.0f objects/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		ws.Reset()
		ca.InferProjectedTInto(ws, q, kpT, v)
	}); allocs != 0 {
		t.Fatalf("steady-state InferProjectedTInto allocates %.0f objects/op, want 0", allocs)
	}
}

// TestInferLabelsMatchesForward: the serving attention path — packed key
// projection, value mix scattered over the memory labels — agrees with the
// training Forward over the one-hot value matrix: to 1e-9 at float64, 1e-4
// at float32, and on every row's argmax class at int8.
func TestInferLabelsMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const classes = 5
	ca := NewCrossAttention("att", 12, 16, rng)
	q := randMat(rng, 9, 12)
	k := randMat(rng, 40, 12)
	labels := make([]int, k.Rows)
	for i := range labels {
		labels[i] = rng.Intn(classes)
	}
	want := ca.Forward(q, k, OneHot(labels, classes))
	kpT := ca.ProjectKeys(k).Transpose()
	for _, tc := range []struct {
		prec mat.Precision
		tol  float64 // 0: argmax agreement only
	}{{mat.PrecFloat64, 1e-9}, {mat.PrecFloat32, 1e-4}, {mat.PrecInt8, 0}} {
		t.Run(tc.prec.String(), func(t *testing.T) {
			ws := NewWorkspace()
			ws.SetPrecision(tc.prec)
			got := ca.InferPackedTInto(ws, q, mat.PackPrec(kpT, tc.prec), labels, classes)
			if got.Rows != want.Rows || got.Cols != want.Cols {
				t.Fatalf("shape %dx%d, want %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
			}
			for r := 0; r < want.Rows; r++ {
				if tc.tol == 0 {
					if g, w := mat.ArgMax(got.Row(r)), mat.ArgMax(want.Row(r)); g != w {
						t.Fatalf("row %d: argmax %d, want %d", r, g, w)
					}
					continue
				}
				for j, w := range want.Row(r) {
					if g := got.Row(r)[j]; math.Abs(g-w) > tc.tol {
						t.Fatalf("row %d class %d: %g, want %g (tol %g)", r, j, g, w, tc.tol)
					}
				}
			}
		})
	}
}

// TestMixOneHotMatchesProduct: the scatter equals the GEMM against the
// one-hot matrix — exactly at float64 when every class has at most one
// memory row, and bit for bit against the float32 rounding sequence.
func TestMixOneHotMatchesProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	w := randMat(rng, 6, 9)
	labels := []int{3, 0, 5, 1, 8, 2, 7, 4, 6} // a permutation: one row per class
	got := mixOneHotInto(mat.New(6, 9), w, labels, false)
	closeEnough(t, got, mat.Mul(w, OneHot(labels, 9)), "permutation")

	labels = []int{2, 2, 0, 1, 2, 0, 1, 1, 2}
	got = mixOneHotInto(mat.New(6, 3), w, labels, true)
	for r := 0; r < w.Rows; r++ {
		var acc [3]float32
		for m, l := range labels {
			acc[l] += float32(w.At(r, m))
		}
		for j, v := range acc {
			if got.At(r, j) != float64(v) {
				t.Fatalf("row %d class %d: %v, want float32 sum %v", r, j, got.At(r, j), v)
			}
		}
	}
	if allocs := testing.AllocsPerRun(50, func() { mixOneHotInto(got, w, labels, true) }); allocs != 0 {
		t.Fatalf("mixOneHotInto allocates %.0f objects/op, want 0", allocs)
	}
}
