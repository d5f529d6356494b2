package baselines

import (
	"testing"

	"calloc/internal/attack"
	"calloc/internal/device"
	"calloc/internal/eval"
	"calloc/internal/fingerprint"
	"calloc/internal/floorplan"
	"calloc/internal/mat"
)

// testDataset builds one small deterministic dataset shared by the tests.
func testDataset(t testing.TB) *fingerprint.Dataset {
	t.Helper()
	spec := floorplan.Spec{
		ID: 97, Name: "BaselineTest", VisibleAPs: 32, PathLengthM: 10,
		Characteristics: "test",
		Model:           floorplan.Registry()[2].Model,
	}
	b := floorplan.Build(spec, 5)
	ds, err := fingerprint.Collect(b, device.Registry(), fingerprint.DefaultCollectConfig())
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// meanErr is the mean localization error in metres of preds against labels.
func meanErr(ds *fingerprint.Dataset, preds, labels []int) float64 {
	return eval.Summarize(eval.Errors(preds, labels, ds.ErrorMeters)).Mean
}

func meanErrOn(t *testing.T, ds *fingerprint.Dataset, l Localizer, dev string) float64 {
	t.Helper()
	x := fingerprint.X(ds.Test[dev])
	labels := fingerprint.Labels(ds.Test[dev])
	return meanErr(ds, l.Predict(x), labels)
}

func TestDNNLocalizes(t *testing.T) {
	ds := testDataset(t)
	d, err := FitDNN("DNN", fingerprint.X(ds.Train), fingerprint.Labels(ds.Train), ds.NumRPs, DefaultDNNConfig())
	if err != nil {
		t.Fatal(err)
	}
	if e := meanErrOn(t, ds, d, "OP3"); e > 1.5 {
		t.Fatalf("DNN same-device error %.2f m, want ≤1.5 m", e)
	}
	if d.Name() != "DNN" {
		t.Fatal("wrong name")
	}
}

func TestDNNValidation(t *testing.T) {
	if _, err := FitDNN("DNN", mat.New(0, 3), nil, 2, DefaultDNNConfig()); err == nil {
		t.Fatal("expected error for empty data")
	}
}

func TestAdvLocIsMoreRobustThanDNN(t *testing.T) {
	ds := testDataset(t)
	x := fingerprint.X(ds.Train)
	labels := fingerprint.Labels(ds.Train)
	dnn, err := FitDNN("DNN", x, labels, ds.NumRPs, DefaultDNNConfig())
	if err != nil {
		t.Fatal(err)
	}
	advloc, err := FitDNN("AdvLoc", x, labels, ds.NumRPs, DefaultAdvLocConfig())
	if err != nil {
		t.Fatal(err)
	}
	attacked := func(d *DNN) float64 {
		var total float64
		var n int
		for _, dev := range []string{"OP3", "S7"} {
			tx := fingerprint.X(ds.Test[dev])
			tl := fingerprint.Labels(ds.Test[dev])
			adv := attack.Craft(attack.FGSM, d, tx, tl,
				attack.Config{Epsilon: 0.2, PhiPercent: 50, Seed: 3})
			total += meanErr(ds, d.Predict(adv), tl) * float64(len(tl))
			n += len(tl)
		}
		return total / float64(n)
	}
	de, ae := attacked(dnn), attacked(advloc)
	if ae >= de {
		t.Fatalf("AdvLoc attacked error %.2f m should be below plain DNN's %.2f m", ae, de)
	}
}

func TestANVILLocalizes(t *testing.T) {
	ds := testDataset(t)
	a, err := FitANVIL(fingerprint.X(ds.Train), fingerprint.Labels(ds.Train), ds.NumRPs, DefaultANVILConfig())
	if err != nil {
		t.Fatal(err)
	}
	if e := meanErrOn(t, ds, a, "OP3"); e > 2.0 {
		t.Fatalf("ANVIL same-device error %.2f m, want ≤2 m", e)
	}
}

func TestANVILInputGradientShape(t *testing.T) {
	ds := testDataset(t)
	a, err := FitANVIL(fingerprint.X(ds.Train), fingerprint.Labels(ds.Train), ds.NumRPs, DefaultANVILConfig())
	if err != nil {
		t.Fatal(err)
	}
	x := fingerprint.X(ds.Test["OP3"][:3])
	g := a.InputGradient(x, fingerprint.Labels(ds.Test["OP3"][:3]))
	if g.Rows != 3 || g.Cols != ds.NumAPs {
		t.Fatalf("gradient %dx%d, want 3x%d", g.Rows, g.Cols, ds.NumAPs)
	}
	if g.MaxAbs() == 0 {
		t.Fatal("zero input gradient")
	}
}

func TestANVILRejectsBadHeadConfig(t *testing.T) {
	cfg := DefaultANVILConfig()
	cfg.TokenDim = 10
	cfg.Heads = 4
	if _, err := FitANVIL(mat.New(2, 20), []int{0, 1}, 2, cfg); err == nil {
		t.Fatal("expected error for indivisible token dim")
	}
}

func TestSANGRIALocalizes(t *testing.T) {
	ds := testDataset(t)
	cfg := DefaultSANGRIAConfig()
	cfg.AE.Epochs = 80
	s, err := FitSANGRIA(fingerprint.X(ds.Train), fingerprint.Labels(ds.Train), ds.NumRPs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e := meanErrOn(t, ds, s, "OP3"); e > 2.5 {
		t.Fatalf("SANGRIA same-device error %.2f m, want ≤2.5 m", e)
	}
	if s.Name() != "SANGRIA" {
		t.Fatal("wrong name")
	}
}

func TestWiDeepLocalizes(t *testing.T) {
	ds := testDataset(t)
	cfg := DefaultWiDeepConfig()
	cfg.AE.Epochs = 80
	w, err := FitWiDeep(fingerprint.X(ds.Train), fingerprint.Labels(ds.Train), ds.NumRPs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e := meanErrOn(t, ds, w, "OP3"); e > 2.5 {
		t.Fatalf("WiDeep same-device error %.2f m, want ≤2.5 m", e)
	}
	if w.Name() != "WiDeep" {
		t.Fatal("wrong name")
	}
}

// TestUndefendedBaselinesCollapseUnderAttack verifies the premise of Fig 1
// and Fig 6: surrogate-transferred FGSM degrades every undefended framework.
func TestUndefendedBaselinesCollapseUnderAttack(t *testing.T) {
	ds := testDataset(t)
	x := fingerprint.X(ds.Train)
	labels := fingerprint.Labels(ds.Train)
	sangriaCfg := DefaultSANGRIAConfig()
	sangriaCfg.AE.Epochs = 80
	s, err := FitSANGRIA(x, labels, ds.NumRPs, sangriaCfg)
	if err != nil {
		t.Fatal(err)
	}
	sur := attack.NewSurrogate(x, labels, ds.NumRPs, 150, 2)
	tx := fingerprint.X(ds.Test["OP3"])
	tl := fingerprint.Labels(ds.Test["OP3"])
	clean := meanErr(ds, s.Predict(tx), tl)
	adv := attack.Craft(attack.FGSM, sur, tx, tl, attack.Config{Epsilon: 0.4, PhiPercent: 100, Seed: 3})
	attacked := meanErr(ds, s.Predict(adv), tl)
	if attacked <= clean {
		t.Fatalf("SANGRIA attacked error %.2f m should exceed clean %.2f m", attacked, clean)
	}
}

// TestWiDeepWhiteBoxGradient: the chained AE+GP gradient must be non-zero
// and an FGSM step along it must not reduce WiDeep's error.
func TestWiDeepWhiteBoxGradient(t *testing.T) {
	ds := testDataset(t)
	cfg := DefaultWiDeepConfig()
	cfg.AE.Epochs = 80
	w, err := FitWiDeep(fingerprint.X(ds.Train), fingerprint.Labels(ds.Train), ds.NumRPs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := fingerprint.X(ds.Test["OP3"])
	labels := fingerprint.Labels(ds.Test["OP3"])
	g := w.InputGradient(x, labels)
	if g.Rows != x.Rows || g.Cols != x.Cols {
		t.Fatalf("gradient %dx%d, want %dx%d", g.Rows, g.Cols, x.Rows, x.Cols)
	}
	if g.MaxAbs() == 0 {
		t.Fatal("WiDeep white-box gradient is identically zero")
	}
	adv := attack.Craft(attack.FGSM, w, x, labels,
		attack.Config{Epsilon: 0.4, PhiPercent: 100, Seed: 3})
	clean := meanErr(ds, w.Predict(x), labels)
	attacked := meanErr(ds, w.Predict(adv), labels)
	if attacked < clean {
		t.Fatalf("white-box FGSM reduced WiDeep error: %.2f < %.2f", attacked, clean)
	}
}

// TestSANGRIADistilledGradient: the distilled-student gradient must exist and
// FGSM along it must hurt the tree ensemble it mimics.
func TestSANGRIADistilledGradient(t *testing.T) {
	ds := testDataset(t)
	cfg := DefaultSANGRIAConfig()
	cfg.AE.Epochs = 80
	s, err := FitSANGRIA(fingerprint.X(ds.Train), fingerprint.Labels(ds.Train), ds.NumRPs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := fingerprint.X(ds.Test["OP3"])
	labels := fingerprint.Labels(ds.Test["OP3"])
	g := s.InputGradient(x, labels)
	if g.MaxAbs() == 0 {
		t.Fatal("SANGRIA distilled gradient is identically zero")
	}
	adv := attack.Craft(attack.FGSM, s, x, labels,
		attack.Config{Epsilon: 0.4, PhiPercent: 100, Seed: 3})
	clean := meanErr(ds, s.Predict(x), labels)
	attacked := meanErr(ds, s.Predict(adv), labels)
	if attacked <= clean {
		t.Fatalf("distilled FGSM did not hurt SANGRIA: %.2f vs clean %.2f", attacked, clean)
	}
}
