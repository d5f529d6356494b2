// Package experiments contains one driver per table and figure of the
// paper's evaluation (§V). The drivers are shared by the calloc-eval CLI and
// the repository's benchmarks: each builds (and caches) the datasets and
// trained models it needs, runs the paper's protocol, and renders the same
// rows/series the paper reports as ASCII tables and heatmaps.
package experiments

import (
	"fmt"
	"io"
	"math"

	"calloc/internal/attack"
	"calloc/internal/baselines"
	"calloc/internal/bayes"
	"calloc/internal/core"
	"calloc/internal/device"
	"calloc/internal/eval"
	"calloc/internal/fingerprint"
	"calloc/internal/floorplan"
	"calloc/internal/gp"
	"calloc/internal/knn"
	"calloc/internal/localizer"
	"calloc/internal/mat"
)

// Mode sizes an experiment run. Full reproduces the paper's scale (all five
// Table-II buildings, six devices); Quick shrinks buildings and grids so the
// whole figure set runs in about a minute for demos, CI, and benchmarks.
type Mode struct {
	Name        string
	BuildingIDs []int
	Devices     []string
	Epsilons    []float64 // ε grid for attack sweeps
	Phis        []int     // ø grid for attack sweeps
	// APScale and PathScale shrink buildings (1 = Table II scale).
	APScale, PathScale float64
	// EpochsPerLesson for CALLOC's curriculum; BaselineEpochs for the
	// comparison frameworks.
	EpochsPerLesson int
	BaselineEpochs  int
	Seed            int64
}

// FullMode reproduces the paper's scale.
func FullMode() Mode {
	return Mode{
		Name:            "full",
		BuildingIDs:     []int{1, 2, 3, 4, 5},
		Devices:         device.Acronyms(),
		Epsilons:        []float64{0.1, 0.2, 0.3, 0.4, 0.5},
		Phis:            []int{20, 50, 100},
		APScale:         1,
		PathScale:       1,
		EpochsPerLesson: 30,
		BaselineEpochs:  300,
		Seed:            1,
	}
}

// QuickMode shrinks everything for fast demonstration runs.
func QuickMode() Mode {
	return Mode{
		Name:            "quick",
		BuildingIDs:     []int{1, 3},
		Devices:         []string{"OP3", "S7", "MOTO"},
		Epsilons:        []float64{0.1, 0.3, 0.5},
		Phis:            []int{20, 100},
		APScale:         0.25,
		PathScale:       0.3,
		EpochsPerLesson: 15,
		BaselineEpochs:  150,
		Seed:            1,
	}
}

// Suite lazily builds and caches the datasets and trained models the figure
// drivers share. All construction is deterministic in Mode.Seed. Fitted
// localizers live in a localizer.Registry under {building, floor 0, name}
// keys — the figure drivers run head-to-head comparisons through registry
// entries, the same dispatch surface the serving layer uses.
type Suite struct {
	Mode Mode
	// Log, when non-nil, receives progress lines (model training at full
	// scale takes minutes; silence reads as a hang).
	Log io.Writer

	datasets   map[int]*fingerprint.Dataset
	callocs    map[int]*core.Model
	ncs        map[int]*core.Model
	reg        *localizer.Registry
	surrogates map[int]*attack.Surrogate
}

// NewSuite creates an empty suite for the mode.
func NewSuite(mode Mode, log io.Writer) *Suite {
	return &Suite{
		Mode:       mode,
		Log:        log,
		datasets:   make(map[int]*fingerprint.Dataset),
		callocs:    make(map[int]*core.Model),
		ncs:        make(map[int]*core.Model),
		reg:        localizer.NewRegistry(),
		surrogates: make(map[int]*attack.Surrogate),
	}
}

// Registry exposes the suite's localizer registry: every framework fitted by
// Framework is registered under {building, floor 0, name}, ready to serve
// through serve.New or to enumerate for ad-hoc comparisons.
func (s *Suite) Registry() *localizer.Registry { return s.reg }

func (s *Suite) logf(format string, args ...any) {
	if s.Log != nil {
		fmt.Fprintf(s.Log, format+"\n", args...)
	}
}

// scaledSpec applies the mode's shrink factors to a Table-II building.
func (s *Suite) scaledSpec(id int) (floorplan.Spec, error) {
	spec, err := floorplan.SpecByID(id)
	if err != nil {
		return floorplan.Spec{}, err
	}
	if s.Mode.APScale > 0 && s.Mode.APScale != 1 {
		spec.VisibleAPs = maxInt(8, int(math.Round(float64(spec.VisibleAPs)*s.Mode.APScale)))
	}
	if s.Mode.PathScale > 0 && s.Mode.PathScale != 1 {
		spec.PathLengthM = maxInt(8, int(math.Round(float64(spec.PathLengthM)*s.Mode.PathScale)))
	}
	return spec, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Dataset returns (building, collecting on first use) the dataset for a
// Table-II building ID.
func (s *Suite) Dataset(id int) (*fingerprint.Dataset, error) {
	if ds, ok := s.datasets[id]; ok {
		return ds, nil
	}
	spec, err := s.scaledSpec(id)
	if err != nil {
		return nil, err
	}
	b := floorplan.Build(spec, s.Mode.Seed+int64(id))
	cfg := fingerprint.DefaultCollectConfig()
	cfg.Seed = s.Mode.Seed + int64(id)*100
	ds, err := fingerprint.Collect(b, device.Registry(), cfg)
	if err != nil {
		return nil, err
	}
	s.logf("collected %s: %d APs, %d RPs, %d offline fingerprints",
		ds.BuildingName, ds.NumAPs, ds.NumRPs, len(ds.Train))
	s.datasets[id] = ds
	return ds, nil
}

// CALLOC returns the curriculum-trained CALLOC model for a building.
func (s *Suite) CALLOC(id int) (*core.Model, error) {
	if m, ok := s.callocs[id]; ok {
		return m, nil
	}
	m, err := s.trainCALLOC(id, true)
	if err != nil {
		return nil, err
	}
	s.callocs[id] = m
	return m, nil
}

// NC returns the no-curriculum ablation model for a building.
func (s *Suite) NC(id int) (*core.Model, error) {
	if m, ok := s.ncs[id]; ok {
		return m, nil
	}
	m, err := s.trainCALLOC(id, false)
	if err != nil {
		return nil, err
	}
	s.ncs[id] = m
	return m, nil
}

func (s *Suite) trainCALLOC(id int, useCurriculum bool) (*core.Model, error) {
	ds, err := s.Dataset(id)
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig(ds.NumAPs, ds.NumRPs)
	cfg.Seed = s.Mode.Seed
	m, err := core.NewModel(cfg)
	if err != nil {
		return nil, err
	}
	tc := core.DefaultTrainConfig()
	tc.UseCurriculum = useCurriculum
	tc.EpochsPerLesson = s.Mode.EpochsPerLesson
	tc.Seed = s.Mode.Seed
	name := "CALLOC"
	if !useCurriculum {
		name = "CALLOC-NC"
	}
	s.logf("training %s on %s ...", name, ds.BuildingName)
	res, err := m.Train(ds.Train, tc)
	if err != nil {
		return nil, err
	}
	s.logf("  %s: %d lessons, %d adaptive reverts, final loss %.3f",
		name, res.LessonsCompleted, res.Reverts, res.FinalLoss)
	return m, nil
}

// Framework names used by the figure drivers and the registry keys.
const (
	NameCALLOC   = "CALLOC"
	NameCALLOCNC = "CALLOC-NC"
	NameAdvLoc   = "AdvLoc"
	NameSANGRIA  = "SANGRIA"
	NameANVIL    = "ANVIL"
	NameWiDeep   = "WiDeep"
	NameDNN      = "DNN"
	NameKNN      = "KNN"
	NameGPC      = "GPC"
	NameBayes    = "Bayes"
)

// SOTAFrameworks lists the Fig-6 comparison set in paper order.
func SOTAFrameworks() []string {
	return []string{NameCALLOC, NameAdvLoc, NameSANGRIA, NameANVIL, NameWiDeep}
}

// Framework returns (training and registering on first use) a fitted
// localizer by name. Every fitted framework lives in the suite's registry
// under {building id, floor 0, name}; the figure drivers dispatch through
// the returned Localizer exactly as the serving layer would.
func (s *Suite) Framework(id int, name string) (localizer.Localizer, error) {
	key := localizer.Key{Building: id, Floor: 0, Backend: name}
	if snap, ok := s.reg.Get(key); ok {
		return snap.Localizer, nil
	}
	ds, err := s.Dataset(id)
	if err != nil {
		return nil, err
	}
	x := fingerprint.X(ds.Train)
	labels := fingerprint.Labels(ds.Train)
	s.logf("training %s on %s ...", name, ds.BuildingName)

	var loc localizer.Localizer
	switch name {
	case NameCALLOC:
		cm, err := s.CALLOC(id)
		if err != nil {
			return nil, err
		}
		loc = localizer.FromCore(NameCALLOC, cm)
	case NameCALLOCNC:
		cm, err := s.NC(id)
		if err != nil {
			return nil, err
		}
		loc = localizer.FromCore(NameCALLOCNC, cm)
	case NameKNN:
		c, err := knn.New(x, labels, 3)
		if err != nil {
			return nil, err
		}
		loc = localizer.FromKNN(NameKNN, c)
	case NameGPC:
		c, err := gp.Fit(x, labels, ds.NumRPs, gp.DefaultConfig())
		if err != nil {
			return nil, err
		}
		loc = localizer.FromGP(NameGPC, c)
	case NameBayes:
		c, err := bayes.Fit(x, labels, ds.NumRPs)
		if err != nil {
			return nil, err
		}
		loc = localizer.FromBayes(NameBayes, c)
	default:
		est, err := s.fitBaseline(name, x, labels, ds.NumRPs)
		if err != nil {
			return nil, err
		}
		loc = localizer.FromBaseline(est, ds.NumAPs, ds.NumRPs)
	}
	if _, err := s.reg.Register(key, loc); err != nil {
		return nil, err
	}
	return loc, nil
}

// fitBaseline trains one of the internal/baselines comparison frameworks.
func (s *Suite) fitBaseline(name string, x *mat.Matrix, labels []int, classes int) (baselines.Localizer, error) {
	switch name {
	case NameDNN:
		cfg := baselines.DefaultDNNConfig()
		cfg.Epochs = s.Mode.BaselineEpochs
		cfg.Seed = s.Mode.Seed
		return baselines.FitDNN(NameDNN, x, labels, classes, cfg)
	case NameAdvLoc:
		cfg := baselines.DefaultAdvLocConfig()
		cfg.Epochs = s.Mode.BaselineEpochs
		cfg.Seed = s.Mode.Seed
		return baselines.FitDNN(NameAdvLoc, x, labels, classes, cfg)
	case NameANVIL:
		cfg := baselines.DefaultANVILConfig()
		cfg.Epochs = s.Mode.BaselineEpochs
		cfg.Seed = s.Mode.Seed
		return baselines.FitANVIL(x, labels, classes, cfg)
	case NameSANGRIA:
		cfg := baselines.DefaultSANGRIAConfig()
		cfg.AE.Epochs = s.Mode.BaselineEpochs / 2
		cfg.AE.Seed = s.Mode.Seed
		cfg.GBDT.Seed = s.Mode.Seed
		return baselines.FitSANGRIA(x, labels, classes, cfg)
	case NameWiDeep:
		cfg := baselines.DefaultWiDeepConfig()
		cfg.AE.Epochs = s.Mode.BaselineEpochs / 2
		cfg.AE.Seed = s.Mode.Seed
		return baselines.FitWiDeep(x, labels, classes, cfg)
	default:
		return nil, fmt.Errorf("experiments: unknown framework %q", name)
	}
}

// Surrogate returns the building's transfer-attack surrogate, used to attack
// localizers that expose no gradients.
func (s *Suite) Surrogate(id int) (*attack.Surrogate, error) {
	if sur, ok := s.surrogates[id]; ok {
		return sur, nil
	}
	ds, err := s.Dataset(id)
	if err != nil {
		return nil, err
	}
	s.logf("training attack surrogate on %s ...", ds.BuildingName)
	sur := attack.NewSurrogate(fingerprint.X(ds.Train), fingerprint.Labels(ds.Train),
		ds.NumRPs, s.Mode.BaselineEpochs/2, s.Mode.Seed+7)
	s.surrogates[id] = sur
	return sur, nil
}

// GradientSources returns the white-box adversary's gradient oracles for a
// victim, mirroring the paper's threat model: the victim's own gradients
// (every reproduced framework exposes them — by backprop, closed-form kernel
// gradient, softmin relaxation, or distilled student), reached by unwrapping
// the registry adapter, with the building surrogate as the fallback for
// localizers that expose none.
func (s *Suite) GradientSources(id int, loc localizer.Localizer) ([]attack.GradientModel, error) {
	if d, ok := localizer.Unwrap(loc).(baselines.Differentiable); ok {
		return []attack.GradientModel{d}, nil
	}
	sur, err := s.Surrogate(id)
	if err != nil {
		return nil, err
	}
	return []attack.GradientModel{sur}, nil
}

// AttackedErrors evaluates a registry localizer on one device's online
// fingerprints under the given attack and returns per-sample errors in
// metres. When more than one gradient source is available the adversary
// keeps, per sample, the perturbation that hurts the victim most. A config
// with phi 0 evaluates clean data.
func (s *Suite) AttackedErrors(id int, loc localizer.Localizer, dev string, method attack.Method, cfg attack.Config) ([]float64, error) {
	ds, err := s.Dataset(id)
	if err != nil {
		return nil, err
	}
	samples, ok := ds.Test[dev]
	if !ok {
		return nil, fmt.Errorf("experiments: no test data for device %q", dev)
	}
	x := fingerprint.X(samples)
	labels := fingerprint.Labels(samples)
	// Predictions stay a single batched call, then become per-sample metre
	// errors.
	errs := eval.Errors(loc.PredictInto(nil, x), labels, ds.ErrorMeters)
	if cfg.PhiPercent <= 0 || cfg.Epsilon <= 0 {
		return errs, nil
	}
	grads, err := s.GradientSources(id, loc)
	if err != nil {
		return nil, err
	}
	for _, grad := range grads {
		adv := attack.Craft(method, grad, x, labels, cfg)
		advErrs := eval.Errors(loc.PredictInto(nil, adv), labels, ds.ErrorMeters)
		for i, e := range advErrs {
			if e > errs[i] {
				errs[i] = e
			}
		}
	}
	return errs, nil
}
