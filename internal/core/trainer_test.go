package core

import (
	"testing"

	"calloc/internal/curriculum"
	"calloc/internal/fingerprint"
	"calloc/internal/mat"
	"calloc/internal/nn"
)

// trainWeights trains a fresh small model and returns its flattened weights.
func trainWeights(t *testing.T, ds *fingerprint.Dataset, mutate func(*TrainConfig)) [][]float64 {
	t.Helper()
	m, err := NewModel(smallConfig(ds))
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickTrainConfig()
	cfg.EpochsPerLesson = 5
	if mutate != nil {
		mutate(&cfg)
	}
	if _, err := m.Train(ds.Train, cfg); err != nil {
		t.Fatal(err)
	}
	return m.snapshotInto(nil)
}

// TestTrainDeterministicAcrossParallelism: the acceptance criterion of the
// sharded trainer — a same-seed run produces bit-identical final weights at
// SetParallelism(1) and under maximum fan-out, because the shard partition is
// fixed and the reduction ordered.
func TestTrainDeterministicAcrossParallelism(t *testing.T) {
	ds := testDataset(t)
	prev := mat.SetParallelism(1)
	defer mat.SetParallelism(prev)
	seq := trainWeights(t, ds, nil)
	mat.SetParallelism(8)
	par := trainWeights(t, ds, nil)
	for i := range seq {
		for j := range seq[i] {
			if seq[i][j] != par[i][j] {
				t.Fatalf("weights diverge at tensor %d index %d: %.17g vs %.17g (1 vs 8 workers)",
					i, j, seq[i][j], par[i][j])
			}
		}
	}
}

// TestMiniBatchTrainDeterministicAcrossParallelism: the same guarantee holds
// for the mini-batch regime (shuffled batches, one optimizer step each).
func TestMiniBatchTrainDeterministicAcrossParallelism(t *testing.T) {
	ds := testDataset(t)
	withBatch := func(cfg *TrainConfig) { cfg.BatchSize = 24 }
	prev := mat.SetParallelism(1)
	defer mat.SetParallelism(prev)
	seq := trainWeights(t, ds, withBatch)
	mat.SetParallelism(8)
	par := trainWeights(t, ds, withBatch)
	full := trainWeights(t, ds, nil)
	for i := range seq {
		for j := range seq[i] {
			if seq[i][j] != par[i][j] {
				t.Fatalf("mini-batch weights diverge at tensor %d index %d (1 vs 8 workers)", i, j)
			}
		}
	}
	// Sanity: mini-batching is a genuinely different regime, not a no-op.
	same := true
	for i := range seq {
		for j := range seq[i] {
			if seq[i][j] != full[i][j] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("BatchSize had no effect on training")
	}
}

// TestMiniBatchTrainingLearns: the mini-batch regime must still learn the
// clean localization task.
func TestMiniBatchTrainingLearns(t *testing.T) {
	ds := testDataset(t)
	m, err := NewModel(smallConfig(ds))
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickTrainConfig()
	cfg.BatchSize = 16
	// Mini-batching takes ~3 steps per epoch instead of one; the usual
	// full-batch rate overshoots at this tiny scale.
	cfg.LearningRate = 0.005
	if _, err := m.Train(ds.Train, cfg); err != nil {
		t.Fatal(err)
	}
	x := fingerprint.X(ds.Test["OP3"])
	labels := fingerprint.Labels(ds.Test["OP3"])
	var total float64
	for i, p := range m.Predict(x) {
		total += ds.ErrorMeters(p, labels[i])
	}
	if mean := total / float64(len(labels)); mean > 3.0 {
		t.Fatalf("mini-batch clean mean error %.2f m, want ≤3 m", mean)
	}
}

// TestRevertEasesPhiAndTrainsOn: when the adaptive monitor reverts, the
// lesson continues at the eased ø for the rest of its epoch budget.
//
// The scripted losses drive the monitor (patience 1, EMA 0.3) through:
//
//	epoch 0: 1.0 → new best (snapshot)
//	epoch 1: 2.0 → smoothed 1.3 rises → revert + ease
//	epochs 2-9: falling losses → the eased lesson trains to its budget
func TestRevertEasesPhiAndTrainsOn(t *testing.T) {
	ds := testDataset(t)
	m, err := NewModel(smallConfig(ds))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultTrainConfig()
	cfg.Lessons = curriculum.Schedule(2, 100, 0.1)[1:] // one lesson, ø=100
	cfg.EpochsPerLesson = 10
	cfg.Patience = 1
	script := []float64{1.0, 2.0, 0.5, 0.4, 0.3, 0.2, 0.1, 0.09, 0.08, 0.07}
	var phis []int
	cfg.epochHook = func(_, epoch, phi int) float64 {
		phis = append(phis, phi)
		return script[epoch]
	}
	res, err := m.Train(ds.Train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reverts != 1 {
		t.Fatalf("scripted losses produced %d reverts, want 1", res.Reverts)
	}
	if len(phis) != cfg.EpochsPerLesson {
		t.Fatalf("trained %d epochs, want the full budget of %d", len(phis), cfg.EpochsPerLesson)
	}
	for epoch, phi := range phis {
		want := 100
		if epoch >= 2 {
			want = curriculum.EasePhi(100)
		}
		if phi != want {
			t.Fatalf("epoch %d trained at ø=%d, want %d (phis %v)", epoch, phi, want, phis)
		}
	}
}

// TestTrainCheckpointResume: per-lesson checkpoints capture enough state that
// a fresh model resumes mid-curriculum deterministically, and the gob wire
// format round-trips.
func TestTrainCheckpointResume(t *testing.T) {
	ds := testDataset(t)
	baseCfg := func() TrainConfig {
		cfg := quickTrainConfig() // 4 lessons
		cfg.EpochsPerLesson = 5
		return cfg
	}

	m1, err := NewModel(smallConfig(ds))
	if err != nil {
		t.Fatal(err)
	}
	var cks []*TrainCheckpoint
	cfg := baseCfg()
	cfg.OnCheckpoint = func(c *TrainCheckpoint) { cks = append(cks, c) }
	if _, err := m1.Train(ds.Train, cfg); err != nil {
		t.Fatal(err)
	}
	if len(cks) != 4 {
		t.Fatalf("captured %d checkpoints, want one per lesson (4)", len(cks))
	}
	if cks[1].Lesson != 2 {
		t.Fatalf("second checkpoint resumes at lesson %d, want 2", cks[1].Lesson)
	}

	blob, err := cks[1].Encode()
	if err != nil {
		t.Fatal(err)
	}
	ck, err := DecodeTrainCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}

	resume := func() ([][]float64, TrainResult) {
		m, err := NewModel(smallConfig(ds))
		if err != nil {
			t.Fatal(err)
		}
		cfg := baseCfg()
		cfg.Resume = ck
		res, err := m.Train(ds.Train, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m.snapshotInto(nil), res
	}
	wa, ra := resume()
	wb, rb := resume()
	// Counters are cumulative across resumes: 2 checkpointed + 2 resumed.
	if ra.LessonsCompleted != 4 || rb.LessonsCompleted != 4 {
		t.Fatalf("resumed runs report %d/%d cumulative lessons, want 4", ra.LessonsCompleted, rb.LessonsCompleted)
	}
	trained := false
	for i := range wa {
		for j := range wa[i] {
			if wa[i][j] != wb[i][j] {
				t.Fatal("resume from the same checkpoint is not deterministic")
			}
			if wa[i][j] != ck.Weights[i][j] {
				trained = true
			}
		}
	}
	if !trained {
		t.Fatal("resumed run did not train (weights identical to checkpoint)")
	}

	// A mismatched architecture must be rejected before any state changes.
	other, err := NewModel(DefaultConfig(ds.NumAPs+1, ds.NumRPs))
	if err != nil {
		t.Fatal(err)
	}
	badCfg := baseCfg()
	badCfg.Resume = ck
	if _, err := other.Train(ds.Train, badCfg); err == nil {
		t.Fatal("expected resume to reject a mismatched architecture")
	}
}

// TestResumePhiOverride: a checkpoint's non-negative Phi overrides the
// resumed lesson's scheduled ø — how an adaptively eased lesson (or an
// online fine-tune with a custom ø) resumes where it left off.
func TestResumePhiOverride(t *testing.T) {
	ds := testDataset(t)
	m, err := NewModel(smallConfig(ds))
	if err != nil {
		t.Fatal(err)
	}
	ck := m.NewTrainCheckpoint(0, 0.01, 7)
	ck.Phi = 6
	cfg := DefaultTrainConfig()
	cfg.Lessons = curriculum.Schedule(2, 100, 0.1)[1:]
	cfg.EpochsPerLesson = 2
	cfg.Resume = ck
	var phis []int
	cfg.epochHook = func(_, _, phi int) float64 {
		phis = append(phis, phi)
		return 1.0 / float64(len(phis))
	}
	if _, err := m.Train(ds.Train, cfg); err != nil {
		t.Fatal(err)
	}
	if len(phis) == 0 || phis[0] != 6 {
		t.Fatalf("resumed lesson trained at ø=%v, want the checkpoint override 6", phis)
	}
}

// TestAdamStateRoundTrip: optimizer state survives State/SetState, so a
// resumed run steps with warm moments instead of restarting Adam cold.
func TestAdamStateRoundTrip(t *testing.T) {
	ds := testDataset(t)
	m, err := NewModel(smallConfig(ds))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetMemory(ds.Train); err != nil {
		t.Fatal(err)
	}
	r, err := m.newTrainRun(ds.Train, DefaultTrainConfig(), curriculum.DefaultSchedule())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		r.miniBatchStep(r.xo, r.xo, r.labels)
	}
	state := r.opt.State(m.Params())

	restored := nn.NewAdam(0.999) // wrong LR, replaced by the state
	if err := restored.SetState(state, m.Params()); err != nil {
		t.Fatal(err)
	}
	again := restored.State(m.Params())
	if again.T != state.T || again.LR != state.LR {
		t.Fatalf("state round-trip lost scalars: %+v vs %+v", again, state)
	}
	for i := range state.M {
		for j := range state.M[i] {
			if state.M[i][j] != again.M[i][j] || state.V[i][j] != again.V[i][j] {
				t.Fatal("state round-trip lost moments")
			}
		}
	}
	// Mismatched shapes must be rejected.
	bad := state
	bad.M = bad.M[:1]
	if err := nn.NewAdam(0.01).SetState(bad, m.Params()); err == nil {
		t.Fatal("expected SetState to reject a truncated state")
	}
}
