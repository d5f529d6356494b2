package core

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"testing"

	"calloc/internal/attack"
	"calloc/internal/curriculum"
	"calloc/internal/device"
	"calloc/internal/fingerprint"
	"calloc/internal/floorplan"
	"calloc/internal/mat"
	"calloc/internal/nn"
)

// testDataset builds a small deterministic dataset for fast tests.
func testDataset(t testing.TB) *fingerprint.Dataset {
	t.Helper()
	spec := floorplan.Spec{
		ID: 99, Name: "CoreTest", VisibleAPs: 24, PathLengthM: 10,
		Characteristics: "test",
		Model:           floorplan.Registry()[0].Model,
	}
	b := floorplan.Build(spec, 3)
	ds, err := fingerprint.Collect(b, device.Registry(), fingerprint.DefaultCollectConfig())
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func smallConfig(ds *fingerprint.Dataset) Config {
	cfg := DefaultConfig(ds.NumAPs, ds.NumRPs)
	cfg.EmbedDim = 32
	cfg.AttnDim = 16
	return cfg
}

func quickTrainConfig() TrainConfig {
	cfg := DefaultTrainConfig()
	cfg.Lessons = curriculum.Schedule(4, 100, 0.1)
	cfg.EpochsPerLesson = 30
	cfg.LearningRate = 0.01
	return cfg
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero APs", func(c *Config) { c.NumAPs = 0 }},
		{"one RP", func(c *Config) { c.NumRPs = 1 }},
		{"zero embed", func(c *Config) { c.EmbedDim = 0 }},
		{"zero attn", func(c *Config) { c.AttnDim = 0 }},
		{"dropout 1", func(c *Config) { c.DropoutRate = 1 }},
		{"negative noise", func(c *Config) { c.NoiseSigma = -1 }},
		{"negative lambda", func(c *Config) { c.HyperspaceLambda = -0.1 }},
	}
	for _, tc := range cases {
		cfg := DefaultConfig(10, 5)
		tc.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
	if err := DefaultConfig(10, 5).Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestNewModelRejectsInvalidConfig(t *testing.T) {
	if _, err := NewModel(Config{}); err == nil {
		t.Fatal("expected error for zero config")
	}
}

// TestPaperParameterBudget verifies the §V.A footprint claim: with the
// paper's dimensions our parameter count lands within 0.1% of the reported
// 65 239 (exact: 65 222) and the reported 254.84 kB model size.
func TestPaperParameterBudget(t *testing.T) {
	m, err := NewModel(PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	total := m.NumParams()
	const paperTotal = 65239
	if rel := math.Abs(float64(total-paperTotal)) / paperTotal; rel > 0.001 {
		t.Fatalf("parameter count %d deviates %.4f%% from paper's %d", total, rel*100, paperTotal)
	}
	embed, attn, fc := m.ParamBreakdown()
	if embed != 42496 {
		t.Errorf("embedding params %d, paper reports 42 496", embed)
	}
	if fc != 3782 {
		t.Errorf("final-layer params %d, paper reports 3 782", fc)
	}
	if rel := math.Abs(float64(attn-18961)) / 18961; rel > 0.01 {
		t.Errorf("attention params %d deviate >1%% from paper's 18 961", attn)
	}
	if embed+attn+fc != total {
		t.Errorf("breakdown %d+%d+%d != total %d", embed, attn, fc, total)
	}
	sizeKB := m.ModelSizeKB()
	if math.Abs(sizeKB-254.84) > 1 {
		t.Errorf("model size %.2f kB, paper reports 254.84 kB", sizeKB)
	}
}

func TestSetMemoryValidation(t *testing.T) {
	ds := testDataset(t)
	m, err := NewModel(smallConfig(ds))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetMemory(nil); err == nil {
		t.Fatal("expected error for empty memory")
	}
	bad := []fingerprint.Sample{{RSS: []float64{0.1}, RP: 0}}
	if err := m.SetMemory(bad); err == nil {
		t.Fatal("expected error for wrong feature count")
	}
	if err := m.SetMemory(ds.Train); err != nil {
		t.Fatal(err)
	}
	if m.MemorySize() != len(ds.Train) {
		t.Fatalf("memory size %d, want %d", m.MemorySize(), len(ds.Train))
	}
}

func TestMemoryPerClassSubsampling(t *testing.T) {
	ds := testDataset(t)
	cfg := smallConfig(ds)
	cfg.MemoryPerClass = 2
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetMemory(ds.Train); err != nil {
		t.Fatal(err)
	}
	if want := 2 * ds.NumRPs; m.MemorySize() != want {
		t.Fatalf("subsampled memory %d, want %d", m.MemorySize(), want)
	}
}

func TestPredictWithoutMemoryPanics(t *testing.T) {
	ds := testDataset(t)
	m, _ := NewModel(smallConfig(ds))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic without memory")
		}
	}()
	m.Predict(fingerprint.X(ds.Train[:1]))
}

// TestTrainStepGradients checks the full CALLOC training step against finite
// differences. Stochastic layers are disabled so the loss is deterministic.
// With λ=0 every parameter's gradient is exact; the λ>0 case is covered by
// TestTrainStepGradientsWithLambda (the MSE target is a stop-gradient, so
// only the query branch sees the consistency term).
func TestTrainStepGradients(t *testing.T) {
	ds := testDataset(t)
	cfg := smallConfig(ds)
	cfg.EmbedDim, cfg.AttnDim = 8, 6
	cfg.DropoutRate, cfg.NoiseSigma = 0, 0
	cfg.HyperspaceLambda = 0
	cfg.MemoryPerClass = 1
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetMemory(ds.Train); err != nil {
		t.Fatal(err)
	}
	xo := fingerprint.X(ds.Train[:6])
	labels := fingerprint.Labels(ds.Train[:6])
	rng := rand.New(rand.NewSource(1))
	xc := xo.Clone()
	for i := range xc.Data {
		xc.Data[i] = mat.Clamp(xc.Data[i]+rng.NormFloat64()*0.05, 0, 1)
	}

	lossFn := func() float64 {
		l := m.trainStep(xc, xo, labels)
		m.zeroGrads()
		return l
	}

	m.trainStep(xc, xo, labels)
	grads := make(map[*nn.Param][]float64)
	for _, p := range m.Params() {
		grads[p] = append([]float64(nil), p.G.Data...)
	}
	m.zeroGrads()

	const h = 1e-5
	for _, p := range m.Params() {
		for _, idx := range []int{0, len(p.W.Data) / 2} {
			orig := p.W.Data[idx]
			p.W.Data[idx] = orig + h
			lp := lossFn()
			p.W.Data[idx] = orig - h
			lm := lossFn()
			p.W.Data[idx] = orig
			numeric := (lp - lm) / (2 * h)
			analytic := grads[p][idx]
			diff := math.Abs(numeric - analytic)
			scale := math.Max(1, math.Max(math.Abs(numeric), math.Abs(analytic)))
			if diff/scale > 1e-3 {
				t.Errorf("%s[%d]: analytic %.8f vs numeric %.8f", p.Name, idx, analytic, numeric)
			}
		}
	}
}

// TestTrainStepGradientsWithLambda verifies the λ·MSE consistency term's
// gradient on the query branch (EmbedC). The MSE target H^O is a
// stop-gradient by design, so EmbedO is excluded here and covered by the
// λ=0 test above.
func TestTrainStepGradientsWithLambda(t *testing.T) {
	ds := testDataset(t)
	cfg := smallConfig(ds)
	cfg.EmbedDim, cfg.AttnDim = 8, 6
	cfg.DropoutRate, cfg.NoiseSigma = 0, 0
	cfg.HyperspaceLambda = 0.7
	cfg.MemoryPerClass = 1
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetMemory(ds.Train); err != nil {
		t.Fatal(err)
	}
	xo := fingerprint.X(ds.Train[:5])
	labels := fingerprint.Labels(ds.Train[:5])
	rng := rand.New(rand.NewSource(2))
	xc := xo.Clone()
	for i := range xc.Data {
		xc.Data[i] = mat.Clamp(xc.Data[i]+rng.NormFloat64()*0.05, 0, 1)
	}
	lossFn := func() float64 {
		l := m.trainStep(xc, xo, labels)
		m.zeroGrads()
		return l
	}
	m.trainStep(xc, xo, labels)
	embedCParams := m.embedC.Params()
	grads := make(map[*nn.Param][]float64)
	for _, p := range embedCParams {
		grads[p] = append([]float64(nil), p.G.Data...)
	}
	m.zeroGrads()

	const h = 1e-5
	for _, p := range embedCParams {
		for _, idx := range []int{0, len(p.W.Data) / 2, len(p.W.Data) - 1} {
			orig := p.W.Data[idx]
			p.W.Data[idx] = orig + h
			lp := lossFn()
			p.W.Data[idx] = orig - h
			lm := lossFn()
			p.W.Data[idx] = orig
			numeric := (lp - lm) / (2 * h)
			analytic := grads[p][idx]
			diff := math.Abs(numeric - analytic)
			scale := math.Max(1, math.Max(math.Abs(numeric), math.Abs(analytic)))
			if diff/scale > 1e-3 {
				t.Errorf("%s[%d]: analytic %.8f vs numeric %.8f", p.Name, idx, analytic, numeric)
			}
		}
	}
}

// TestTrainingLearnsCleanData: after the curriculum, CALLOC must localise
// clean same-device fingerprints with small error.
func TestTrainingLearnsCleanData(t *testing.T) {
	ds := testDataset(t)
	m, err := NewModel(smallConfig(ds))
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Train(ds.Train, quickTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.LessonsCompleted != 4 {
		t.Fatalf("completed %d lessons, want 4", res.LessonsCompleted)
	}
	x := fingerprint.X(ds.Test["OP3"])
	labels := fingerprint.Labels(ds.Test["OP3"])
	preds := m.Predict(x)
	var totalErr float64
	for i, p := range preds {
		totalErr += ds.ErrorMeters(p, labels[i])
	}
	mean := totalErr / float64(len(preds))
	if mean > 3.0 {
		t.Fatalf("clean mean error %.2f m, want ≤3 m on the training device", mean)
	}
}

// TestCurriculumImprovesAdversarialRobustness is the repository-level
// statement of the paper's headline claim (Fig 5): under FGSM attack, the
// curriculum-trained model must outperform the NC ablation (the same
// architecture trained conventionally, which never sees adversarial data).
func TestCurriculumImprovesAdversarialRobustness(t *testing.T) {
	ds := testDataset(t)

	train := func(useCurriculum bool) *Model {
		m, err := NewModel(smallConfig(ds))
		if err != nil {
			t.Fatal(err)
		}
		cfg := quickTrainConfig()
		cfg.UseCurriculum = useCurriculum
		if _, err := m.Train(ds.Train, cfg); err != nil {
			t.Fatal(err)
		}
		return m
	}
	calloc := train(true)
	nc := train(false)

	meanAdvError := func(m *Model) float64 {
		var total float64
		var count int
		for _, dev := range []string{"OP3", "MOTO"} {
			x := fingerprint.X(ds.Test[dev])
			labels := fingerprint.Labels(ds.Test[dev])
			adv := attack.Craft(attack.FGSM, m, x, labels,
				attack.Config{Epsilon: 0.3, PhiPercent: 50, Seed: 7})
			for i, p := range m.Predict(adv) {
				total += ds.ErrorMeters(p, labels[i])
				count++
			}
		}
		return total / float64(count)
	}

	ce, ne := meanAdvError(calloc), meanAdvError(nc)
	// At this deliberately tiny scale (24 APs) the curriculum advantage is
	// noisy — there is too little AP redundancy for adversarial training to
	// exploit — so this fast test only checks non-inferiority. The strict
	// Fig-5 claim is asserted at building scale by
	// TestCurriculumBeatsNCAtBuildingScale (skipped under -short).
	if ce > ne*1.5 {
		t.Fatalf("curriculum attacked error %.2f m far exceeds NC attacked error %.2f m", ce, ne)
	}
}

// TestCurriculumBeatsNCAtBuildingScale asserts the paper's Fig 5 claim at
// realistic scale (Building 3 of Table II: 78 APs, 88 RPs): under FGSM
// attack the curriculum-trained CALLOC must beat the conventionally trained
// NC ablation at every evaluated ε.
func TestCurriculumBeatsNCAtBuildingScale(t *testing.T) {
	if testing.Short() {
		t.Skip("building-scale training takes ~1 minute; run without -short")
	}
	spec, err := floorplan.SpecByID(3)
	if err != nil {
		t.Fatal(err)
	}
	b := floorplan.Build(spec, 1)
	ds, err := fingerprint.Collect(b, device.Registry(), fingerprint.DefaultCollectConfig())
	if err != nil {
		t.Fatal(err)
	}
	train := func(useCurriculum bool) *Model {
		m, err := NewModel(DefaultConfig(ds.NumAPs, ds.NumRPs))
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultTrainConfig()
		cfg.UseCurriculum = useCurriculum
		if _, err := m.Train(ds.Train, cfg); err != nil {
			t.Fatal(err)
		}
		return m
	}
	calloc := train(true)
	nc := train(false)
	advError := func(m *Model, eps float64) float64 {
		var total float64
		var count int
		for _, dev := range []string{"OP3", "MOTO", "S7"} {
			x := fingerprint.X(ds.Test[dev])
			labels := fingerprint.Labels(ds.Test[dev])
			adv := attack.Craft(attack.FGSM, m, x, labels,
				attack.Config{Epsilon: eps, PhiPercent: 50, Seed: 7})
			for i, p := range m.Predict(adv) {
				total += ds.ErrorMeters(p, labels[i])
				count++
			}
		}
		return total / float64(count)
	}
	// ε=0.1 (the curriculum's training strength) is the regime where the
	// claim is strict. At ε=0.3 a 30 dB perturbation of half the APs drives
	// every model toward the building's random-guess error, so ordering
	// there is noise — we only require non-inferiority (see EXPERIMENTS.md,
	// Fig 6 honesty notes).
	ce, ne := advError(calloc, 0.1), advError(nc, 0.1)
	if ce >= ne {
		t.Errorf("ε=0.1: curriculum error %.2f m not below NC error %.2f m", ce, ne)
	}
	ce3, ne3 := advError(calloc, 0.3), advError(nc, 0.3)
	if ce3 > ne3*1.1 {
		t.Errorf("ε=0.3: curriculum error %.2f m far exceeds NC error %.2f m", ce3, ne3)
	}
}

func TestTrainEmptyData(t *testing.T) {
	ds := testDataset(t)
	m, _ := NewModel(smallConfig(ds))
	if _, err := m.Train(nil, DefaultTrainConfig()); err == nil {
		t.Fatal("expected error for empty training data")
	}
}

func TestTrainRecordsLossHistory(t *testing.T) {
	ds := testDataset(t)
	m, _ := NewModel(smallConfig(ds))
	cfg := quickTrainConfig()
	if testing.Short() {
		cfg.EpochsPerLesson = 5 // history shape is iteration-insensitive
	}
	res, err := m.Train(ds.Train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.LossHistory) == 0 {
		t.Fatal("no loss history recorded")
	}
	for _, l := range res.LossHistory {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			t.Fatalf("non-finite loss %g in history", l)
		}
	}
	if res.FinalLoss <= 0 {
		t.Fatalf("final loss %g not positive", res.FinalLoss)
	}
}

func TestInputGradientShape(t *testing.T) {
	ds := testDataset(t)
	m, _ := NewModel(smallConfig(ds))
	if err := m.SetMemory(ds.Train); err != nil {
		t.Fatal(err)
	}
	x := fingerprint.X(ds.Test["OP3"][:3])
	labels := fingerprint.Labels(ds.Test["OP3"][:3])
	g := m.InputGradient(x, labels)
	if g.Rows != 3 || g.Cols != ds.NumAPs {
		t.Fatalf("gradient %dx%d, want 3x%d", g.Rows, g.Cols, ds.NumAPs)
	}
	if g.MaxAbs() == 0 {
		t.Fatal("input gradient is identically zero")
	}
}

func TestVerboseCallback(t *testing.T) {
	ds := testDataset(t)
	m, _ := NewModel(smallConfig(ds))
	cfg := quickTrainConfig()
	if testing.Short() {
		cfg.EpochsPerLesson = 5 // callback count is per lesson, not per epoch
	}
	var lines int
	cfg.Verbose = func(string, ...any) { lines++ }
	if _, err := m.Train(ds.Train, cfg); err != nil {
		t.Fatal(err)
	}
	if lines != len(cfg.Lessons) {
		t.Fatalf("verbose called %d times, want %d", lines, len(cfg.Lessons))
	}
}

func TestTrainDeterministicGivenSeeds(t *testing.T) {
	ds := testDataset(t)
	run := func() []int {
		m, _ := NewModel(smallConfig(ds))
		cfg := quickTrainConfig()
		cfg.EpochsPerLesson = 5
		if _, err := m.Train(ds.Train, cfg); err != nil {
			t.Fatal(err)
		}
		return m.Predict(fingerprint.X(ds.Test["OP3"]))
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("training is not deterministic for fixed seeds")
		}
	}
}

func TestModelWeightsRoundTrip(t *testing.T) {
	ds := testDataset(t)
	cfg := smallConfig(ds)
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetMemory(ds.Train); err != nil {
		t.Fatal(err)
	}
	blob, err := m.MarshalWeights()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.SetMemory(ds.Train); err != nil {
		t.Fatal(err)
	}
	if err := m2.UnmarshalWeights(blob); err != nil {
		t.Fatal(err)
	}
	x := fingerprint.X(ds.Test["OP3"])
	a, b := m.Predict(x), m2.Predict(x)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("loaded model predicts differently")
		}
	}
	// Mismatched architecture must be rejected.
	other, err := NewModel(DefaultConfig(ds.NumAPs+1, ds.NumRPs))
	if err != nil {
		t.Fatal(err)
	}
	if err := other.UnmarshalWeights(blob); err == nil {
		t.Fatal("expected shape mismatch error")
	}
}

// corruptWeights decodes a MarshalWeights blob, lets corrupt edit the tensor
// list, and re-encodes it. The local type mirrors the gob wire form (gob
// matches fields by name).
func corruptWeights(t testing.TB, blob []byte, corrupt func(ts []wireTensor)) []byte {
	t.Helper()
	var ts []wireTensor
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&ts); err != nil {
		t.Fatal(err)
	}
	corrupt(ts)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ts); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

type wireTensor struct {
	Name       string
	Rows, Cols int
	Data       []float64
}

// TestModelUnmarshalRejectsCorruptWeights: a weight blob with a truncated
// tensor or a NaN is refused before any tensor is copied, so the model keeps
// serving its previous weights and logits unchanged.
func TestModelUnmarshalRejectsCorruptWeights(t *testing.T) {
	m, x := syntheticModel(t, 12, 5, 40)
	donor, _ := syntheticModel(t, 12, 5, 40)
	donor.Params()[0].W.Data[0] += 1
	donor.Params()[0].NoteUpdate()
	good, err := donor.MarshalWeights()
	if err != nil {
		t.Fatal(err)
	}
	want := m.Logits(x).Clone()
	for name, corrupt := range map[string]func(ts []wireTensor){
		"short third tensor":  func(ts []wireTensor) { ts[2].Data = ts[2].Data[:1] },
		"nan in third tensor": func(ts []wireTensor) { ts[2].Data[0] = math.NaN() },
	} {
		if err := m.UnmarshalWeights(corruptWeights(t, good, corrupt)); err == nil {
			t.Fatalf("%s: corrupt weights accepted", name)
		}
		got := m.Logits(x)
		for i, v := range want.Data {
			if got.Data[i] != v {
				t.Fatalf("%s: logit %d changed from %g to %g after a rejected load", name, i, v, got.Data[i])
			}
		}
	}
}

// TestPredictBatchMatchesSequential: the row-sharded concurrent predictor
// must agree exactly with single-shard sequential inference for every batch
// size, including empty and sub-shard batches.
func TestPredictBatchMatchesSequential(t *testing.T) {
	ds := testDataset(t)
	m, err := NewModel(smallConfig(ds))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetMemory(ds.Train); err != nil {
		t.Fatal(err)
	}
	x := fingerprint.X(ds.Test["OP3"])
	// Sequential reference: argmax over the caching Logits path.
	logits := m.Logits(x)
	want := make([]int, logits.Rows)
	for i := range want {
		want[i] = mat.ArgMax(logits.Row(i))
	}
	for _, rows := range []int{0, 1, 7, x.Rows} {
		sub := mat.FromSlice(rows, x.Cols, x.Data[:rows*x.Cols])
		got := m.PredictBatch(sub)
		if len(got) != rows {
			t.Fatalf("rows=%d: got %d predictions", rows, len(got))
		}
		for i, p := range got {
			if p != want[i] {
				t.Fatalf("rows=%d: prediction %d = %d, want %d", rows, i, p, want[i])
			}
		}
	}
	// Forcing maximum fan-out must not change results.
	prev := mat.SetParallelism(8)
	defer mat.SetParallelism(prev)
	for i, p := range m.PredictBatch(x) {
		if p != want[i] {
			t.Fatalf("parallel prediction %d = %d, want %d", i, p, want[i])
		}
	}
}
