package nn

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"calloc/internal/mat"
)

func randMat(rng *rand.Rand, r, c int) *mat.Matrix {
	m := mat.New(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestDenseShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense("d", 3, 5, rng)
	y := d.Forward(randMat(rng, 7, 3), false)
	if y.Rows != 7 || y.Cols != 5 {
		t.Fatalf("Dense output %dx%d, want 7x5", y.Rows, y.Cols)
	}
	if got := CountParams(d.Params()); got != 3*5+5 {
		t.Fatalf("Dense params = %d, want 20", got)
	}
}

func TestReLUClampsNegative(t *testing.T) {
	r := &ReLU{}
	y := r.Forward(mat.FromRows([][]float64{{-1, 0, 2}}), false)
	want := []float64{0, 0, 2}
	for i, v := range y.Data {
		if v != want[i] {
			t.Fatalf("ReLU = %v, want %v", y.Data, want)
		}
	}
}

// TestReLUForwardAllocs: the rectifier itself allocates nothing, so
// ReLU.Forward allocates only its output matrix, header and data.
func TestReLUForwardAllocs(t *testing.T) {
	x := randMat(rand.New(rand.NewSource(1)), 4, 8)
	r := &ReLU{}
	if got := testing.AllocsPerRun(100, func() { r.Forward(x, false) }); got != 2 {
		t.Fatalf("ReLU.Forward allocates %v times per call, want 2 (the output)", got)
	}
}

func TestSoftmaxCrossEntropyKnownValue(t *testing.T) {
	// Uniform logits over 4 classes → loss = ln 4.
	logits := mat.New(1, 4)
	loss, grad := SoftmaxCrossEntropy(logits, []int{2})
	if math.Abs(loss-math.Log(4)) > 1e-12 {
		t.Fatalf("loss = %g, want ln4", loss)
	}
	// Gradient sums to zero (softmax minus one-hot).
	var s float64
	for _, v := range grad.Data {
		s += v
	}
	if math.Abs(s) > 1e-12 {
		t.Fatalf("CE gradient sums to %g, want 0", s)
	}
}

func TestSoftmaxCrossEntropyRejectsBadLabel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range label")
		}
	}()
	SoftmaxCrossEntropy(mat.New(1, 3), []int{5})
}

func TestAccuracy(t *testing.T) {
	logits := mat.FromRows([][]float64{{2, 1}, {0, 3}, {5, 4}})
	if got := Accuracy(logits, []int{0, 1, 1}); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("Accuracy = %g, want 2/3", got)
	}
}

func TestOneHot(t *testing.T) {
	oh := OneHot([]int{1, 0}, 3)
	want := mat.FromRows([][]float64{{0, 1, 0}, {1, 0, 0}})
	for i := range oh.Data {
		if oh.Data[i] != want.Data[i] {
			t.Fatalf("OneHot = %v", oh.Data)
		}
	}
}

// TestTrainingConvergesOnBlobs trains a small MLP on three linearly separable
// Gaussian blobs and requires near-perfect training accuracy — the end-to-end
// sanity check that forward, backward, and Adam interact correctly.
func TestTrainingConvergesOnBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n, classes = 150, 3
	centers := [][]float64{{0, 0}, {5, 5}, {0, 5}}
	x := mat.New(n, 2)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % classes
		labels[i] = c
		x.Set(i, 0, centers[c][0]+rng.NormFloat64()*0.5)
		x.Set(i, 1, centers[c][1]+rng.NormFloat64()*0.5)
	}
	net := NewNetwork(
		NewDense("l1", 2, 16, rng),
		&ReLU{},
		NewDense("l2", 16, classes, rng),
	)
	opt := NewAdam(0.01)
	for epoch := 0; epoch < 200; epoch++ {
		logits := net.Forward(x, true)
		_, g := SoftmaxCrossEntropy(logits, labels)
		net.Backward(g)
		opt.Step(net.Params())
	}
	acc := Accuracy(net.Forward(x, false), labels)
	if acc < 0.98 {
		t.Fatalf("training accuracy %.3f, want ≥0.98", acc)
	}
}

func TestWeightsMarshalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	net := NewNetwork(NewDense("l1", 4, 8, rng), &ReLU{}, NewDense("l2", 8, 3, rng))
	data, err := net.MarshalWeights()
	if err != nil {
		t.Fatal(err)
	}
	net2 := NewNetwork(NewDense("l1", 4, 8, rng), &ReLU{}, NewDense("l2", 8, 3, rng))
	if err := net2.UnmarshalWeights(data); err != nil {
		t.Fatal(err)
	}
	x := randMat(rng, 5, 4)
	y1 := net.Forward(x, false)
	y2 := net2.Forward(x, false)
	for i := range y1.Data {
		if y1.Data[i] != y2.Data[i] {
			t.Fatal("loaded network gives different outputs")
		}
	}
}

func TestUnmarshalWeightsShapeMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	net := NewNetwork(NewDense("l1", 4, 8, rng))
	data, err := net.MarshalWeights()
	if err != nil {
		t.Fatal(err)
	}
	other := NewNetwork(NewDense("l1", 4, 9, rng))
	if err := other.UnmarshalWeights(data); err == nil {
		t.Fatal("expected shape-mismatch error")
	}
}

// TestUnmarshalWeightsRejectsCorruptTensors: a blob with a short tensor or a
// non-finite value is refused, and refused whole — no tensor before the bad
// one has been overwritten when the error comes back.
func TestUnmarshalWeightsRejectsCorruptTensors(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	src := NewNetwork(NewDense("l1", 4, 8, rng), &ReLU{}, NewDense("l2", 8, 3, rng))
	cases := []struct {
		name    string
		corrupt func(sp []savedParam)
	}{
		{"short", func(sp []savedParam) { sp[2].Data = sp[2].Data[:len(sp[2].Data)-1] }},
		{"long", func(sp []savedParam) { sp[2].Data = append(sp[2].Data, 1) }},
		{"nan", func(sp []savedParam) { sp[2].Data[5] = math.NaN() }},
		{"inf", func(sp []savedParam) { sp[3].Data[0] = math.Inf(-1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var sp []savedParam
			for _, p := range src.Params() {
				sp = append(sp, savedParam{p.Name, p.W.Rows, p.W.Cols, append([]float64(nil), p.W.Data...)})
			}
			tc.corrupt(sp)
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(sp); err != nil {
				t.Fatal(err)
			}
			dst := NewNetwork(NewDense("l1", 4, 8, rng), &ReLU{}, NewDense("l2", 8, 3, rng))
			var before [][]float64
			for _, p := range dst.Params() {
				before = append(before, append([]float64(nil), p.W.Data...))
			}
			if err := dst.UnmarshalWeights(buf.Bytes()); err == nil {
				t.Fatal("corrupt blob accepted")
			}
			for i, p := range dst.Params() {
				for j, v := range p.W.Data {
					if v != before[i][j] {
						t.Fatalf("tensor %d element %d overwritten by a rejected blob", i, j)
					}
				}
			}
		})
	}
}

func TestClipGradients(t *testing.T) {
	p := NewParam("p", 1, 2)
	p.G.Data[0], p.G.Data[1] = 3, 4 // norm 5
	pre := ClipGradients([]*Param{p}, 1)
	if math.Abs(pre-5) > 1e-12 {
		t.Fatalf("pre-clip norm %g, want 5", pre)
	}
	var norm float64
	for _, g := range p.G.Data {
		norm += g * g
	}
	if math.Abs(math.Sqrt(norm)-1) > 1e-9 {
		t.Fatalf("post-clip norm %g, want 1", math.Sqrt(norm))
	}
}

// Property: softmax CE loss is non-negative and its gradient rows sum to 0.
func TestCrossEntropyProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, c := 1+r.Intn(6), 2+r.Intn(6)
		logits := randMat(r, n, c)
		labels := make([]int, n)
		for i := range labels {
			labels[i] = r.Intn(c)
		}
		loss, grad := SoftmaxCrossEntropy(logits, labels)
		if loss < 0 {
			return false
		}
		for i := 0; i < n; i++ {
			var s float64
			for _, v := range grad.Row(i) {
				s += v
			}
			if math.Abs(s) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: Adam decreases a simple quadratic loss from any start.
func TestAdamDescendsQuadratic(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := NewParam("w", 1, 1)
		p.W.Data[0] = r.NormFloat64() * 5
		opt := NewAdam(0.1)
		start := p.W.Data[0] * p.W.Data[0]
		for i := 0; i < 100; i++ {
			p.G.Data[0] = 2 * p.W.Data[0]
			opt.Step([]*Param{p})
		}
		return p.W.Data[0]*p.W.Data[0] <= start
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMultiHeadSelfAttentionShape(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	mhsa := NewMultiHeadSelfAttention("m", 4, 8, 2, rng)
	x := randMat(rng, 3, 32)
	y := mhsa.Forward(x, false)
	if y.Rows != 3 || y.Cols != 32 {
		t.Fatalf("MHSA output %dx%d, want 3x32", y.Rows, y.Cols)
	}
}

func TestNetworkPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	net := NewNetwork(NewDense("l", 2, 3, rng))
	preds := net.Predict(randMat(rng, 4, 2))
	if len(preds) != 4 {
		t.Fatalf("Predict returned %d values, want 4", len(preds))
	}
	for _, p := range preds {
		if p < 0 || p >= 3 {
			t.Fatalf("prediction %d out of range", p)
		}
	}
}
