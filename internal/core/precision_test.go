package core

import (
	"fmt"
	"testing"

	"calloc/internal/attack"
	"calloc/internal/eval"
	"calloc/internal/fingerprint"
	"calloc/internal/mat"
)

// TestReducedPrecisionMetersBudget is the serving-correctness statement for
// the quantized inference paths: weights trained in float64, reloaded into
// float32 and int8 serving models, must localise clean and FGSM-attacked
// fingerprints within a small meters-level budget of the float64 baseline.
// Errors are judged in metres (internal/eval over Dataset.ErrorMeters), not
// in logit space — a quantized model is allowed to move logits as long as
// position estimates stay put.
func TestReducedPrecisionMetersBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	ds := testDataset(t)
	baseCfg := smallConfig(ds)
	trained, err := NewModel(baseCfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trained.Train(ds.Train, quickTrainConfig()); err != nil {
		t.Fatal(err)
	}
	blob, err := trained.MarshalWeights()
	if err != nil {
		t.Fatal(err)
	}

	x := fingerprint.X(ds.Test["OP3"])
	labels := fingerprint.Labels(ds.Test["OP3"])
	// Craft one adversarial batch against the float64 victim so every
	// precision is judged on identical inputs.
	adv := attack.Craft(attack.FGSM, trained, x, labels,
		attack.Config{Epsilon: 0.3, PhiPercent: 50, Seed: 7})

	meanMeters := func(m *Model, in *mat.Matrix) float64 {
		errs := eval.Errors(m.Predict(in), labels, ds.ErrorMeters)
		return eval.Summarize(errs).Mean
	}

	serveAt := func(prec mat.Precision) *Model {
		cfg := baseCfg
		cfg.Precision = prec
		m, err := NewModel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.SetMemory(ds.Train); err != nil {
			t.Fatal(err)
		}
		if err := m.UnmarshalWeights(blob); err != nil {
			t.Fatal(err)
		}
		return m
	}

	baseline := serveAt(mat.PrecFloat64)
	cleanBase := meanMeters(baseline, x)
	advBase := meanMeters(baseline, adv)
	// The float64 serving model is byte-identical to the trained one.
	if got := meanMeters(trained, x); got != cleanBase {
		t.Fatalf("float64 serving model diverged from trainer: %.3f m vs %.3f m", cleanBase, got)
	}

	for _, prec := range []mat.Precision{mat.PrecFloat32, mat.PrecInt8} {
		t.Run(prec.String(), func(t *testing.T) {
			m := serveAt(prec)
			clean := meanMeters(m, x)
			advErr := meanMeters(m, adv)
			t.Logf("%s: clean %.3f m (f64 %.3f), FGSM %.3f m (f64 %.3f)",
				prec, clean, cleanBase, advErr, advBase)
			if clean > 3.0 {
				t.Errorf("clean mean error %.3f m exceeds the 3 m budget", clean)
			}
			if clean > cleanBase+0.5 {
				t.Errorf("clean mean error %.3f m regresses >0.5 m over float64's %.3f m", clean, cleanBase)
			}
			if advErr > advBase+1.0 {
				t.Errorf("FGSM mean error %.3f m regresses >1 m over float64's %.3f m", advErr, advBase)
			}
		})
	}
}

// BenchmarkPredictServedShape times one sequential predict at the served
// shape, per precision: a lone query (never enters the 4-row float32 tile)
// and a 64-row wire batch.
func BenchmarkPredictServedShape(b *testing.B) {
	for _, prec := range []mat.Precision{mat.PrecFloat32, mat.PrecFloat64, mat.PrecInt8} {
		m, x := servedShapeModel(b, prec)
		for _, rows := range []int{1, 64} {
			b.Run(fmt.Sprintf("%s/r%d", prec, rows), func(b *testing.B) {
				q := mat.FromSlice(rows, x.Cols, x.Data[:rows*x.Cols])
				p := m.Predictor()
				dst := make([]int, rows)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					p.PredictBatchInto(dst, q)
				}
			})
		}
	}
}
