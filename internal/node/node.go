// Package node assembles one complete serving process out of the repo's
// building blocks: a localizer.Registry holding every {floor, backend} model
// (plus the floor classifier when a node serves several floors), the
// micro-batching serve.Engine dispatching into it, and one background
// train.Trainer per floor's CALLOC model running the feedback → fine-tune →
// holdout gate → promote → regret-rollback pipeline.
//
// The package exists so a serving node is a VALUE, not a process:
// cmd/calloc-serve wires exactly one Node behind flags, tests instantiate
// in-process fleets of them behind httptest servers, and internal/cluster's
// router composes many of them into a sharded deployment. Everything that
// used to live in cmd/calloc-serve/server.go — dataset wiring, registry
// construction, floor-classifier fitting, trainer lifecycle, and the /v1/*
// HTTP surface — lives here with a programmatic surface.
//
// A node may own any subset of a building's floors: Config.Floors assigns a
// GLOBAL floor index to each dataset, so a two-node fleet can serve floors
// {0} and {1} of the same building and agree with the router (and with each
// other) about what "floor 1" means. Keys in the registry, trainer map, and
// HTTP API all use global floor indices.
package node

import (
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strings"

	"calloc/internal/core"
	"calloc/internal/fingerprint"
	"calloc/internal/localizer"
	"calloc/internal/mat"
	"calloc/internal/serve"
	"calloc/internal/train"
)

// KnownBackends lists every backend name Config.Backends accepts, in the
// order the CLI documents them.
var KnownBackends = []string{"calloc", "knn", "bayes", "gpc", "gbdt", "dnn"}

// Config collects everything a Node needs beyond the datasets; cmd/calloc-serve
// fills it from flags, tests construct it directly.
type Config struct {
	// Backends names the localizers to fit (or load) and serve on every
	// floor. Empty defaults to {"calloc"}.
	Backends []string
	// Floors assigns each dataset its global floor index. Empty defaults to
	// the positional 0..len(datasets)-1; a fleet node serving floors {2, 3}
	// of a building passes Floors: []int{2, 3}.
	Floors      []int
	WeightBlobs [][]byte // per-dataset CALLOC weights; nil quick-trains
	TrainEpochs int      // epochs per lesson when quick-training

	// Precision selects the packed-weight snapshot format of the CALLOC
	// serving path: "float64" (the default; the empty string means the
	// same), "float32", or "int8". It applies to every CALLOC model the
	// node builds — initial fit, /v1/swap uploads, and fine-tune candidates
	// — while training and checkpoints stay float64 throughout.
	Precision string

	Engine serve.Options

	// Trainer tunes the online fine-tune loop each floor's CALLOC model runs
	// unless DisableTrainer is set.
	DisableTrainer bool
	Trainer        train.Policy

	Logf func(format string, args ...any)
}

// Validate checks the parts of the config that would otherwise surface as a
// late panic or a silent misconfiguration deep inside New — after minutes of
// quick-training, in the worst case. numDatasets is the dataset count the
// config will be applied to. It returns the parsed serving precision.
func (c *Config) Validate(numDatasets int) (mat.Precision, error) {
	if numDatasets == 0 {
		return 0, errors.New("node: no datasets")
	}
	for _, b := range c.Backends {
		if !slices.Contains(KnownBackends, strings.TrimSpace(b)) {
			return 0, fmt.Errorf("node: unknown backend %q (known: %s)",
				strings.TrimSpace(b), strings.Join(KnownBackends, ", "))
		}
	}
	prec, err := mat.ParsePrecision(strings.TrimSpace(c.Precision))
	if err != nil {
		return 0, fmt.Errorf("node: %w", err)
	}
	if c.WeightBlobs != nil && len(c.WeightBlobs) != numDatasets {
		return 0, fmt.Errorf("node: %d weight blobs for %d floor datasets", len(c.WeightBlobs), numDatasets)
	}
	if len(c.Floors) > 0 {
		if len(c.Floors) != numDatasets {
			return 0, fmt.Errorf("node: %d floor indices for %d floor datasets", len(c.Floors), numDatasets)
		}
		seen := make(map[int]bool, len(c.Floors))
		for _, f := range c.Floors {
			if f < 0 {
				return 0, fmt.Errorf("node: negative floor index %d", f)
			}
			if seen[f] {
				return 0, fmt.Errorf("node: duplicate floor index %d", f)
			}
			seen[f] = true
		}
	}
	if err := c.Trainer.Validate(); err != nil {
		return 0, err
	}
	return prec, nil
}

// Node owns the serving state of one process-worth of models: the registry
// of localizers, the micro-batching engine, and one background fine-tune
// trainer per floor's CALLOC model.
type Node struct {
	cfg      Config
	building int
	floors   []int                        // global floor index per dataset, dataset order
	datasets map[int]*fingerprint.Dataset // global floor → dataset
	reg      *localizer.Registry
	engine   *serve.Engine
	trainers map[int]*train.Trainer // global floor → trainer
	deflt    string                 // default backend
	prec     mat.Precision          // CALLOC packed-weight serving precision
	wire     wireCounters           // wire-level failure/volume counters
}

// New builds the registry (fitting or loading every backend on every floor),
// the engine, and the per-floor trainers. Trainers are constructed but not
// started; call Start.
func New(datasets []*fingerprint.Dataset, cfg Config) (*Node, error) {
	prec, err := cfg.Validate(len(datasets))
	if err != nil {
		return nil, err
	}
	if len(cfg.Backends) == 0 {
		cfg.Backends = []string{"calloc"}
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	floors := cfg.Floors
	if len(floors) == 0 {
		floors = make([]int, len(datasets))
		for i := range floors {
			floors[i] = i
		}
	}
	n := &Node{
		cfg:      cfg,
		building: datasets[0].BuildingID,
		floors:   floors,
		datasets: make(map[int]*fingerprint.Dataset, len(datasets)),
		reg:      localizer.NewRegistry(),
		trainers: make(map[int]*train.Trainer),
		deflt:    strings.TrimSpace(cfg.Backends[0]),
		prec:     prec,
	}
	for i, ds := range datasets {
		n.datasets[floors[i]] = ds
	}
	ckpts := make(map[int]*core.TrainCheckpoint)
	for i, ds := range datasets {
		floor := floors[i]
		for _, backend := range cfg.Backends {
			backend = strings.TrimSpace(backend)
			var blob []byte
			if backend == "calloc" && cfg.WeightBlobs != nil {
				blob = cfg.WeightBlobs[i]
			}
			loc, ckpt, err := buildBackend(backend, ds, blob, cfg.TrainEpochs, prec, cfg.Logf)
			if err != nil {
				return nil, err
			}
			if ckpt != nil {
				ckpts[floor] = ckpt
			}
			key := localizer.Key{Building: n.building, Floor: floor, Backend: backend}
			if _, err := n.reg.Register(key, loc); err != nil {
				return nil, err
			}
			cfg.Logf("node: registered %s (%s, %d classes)", key, loc.Name(), loc.NumClasses())
		}
	}
	if len(datasets) > 1 {
		fc, err := FitFloorClassifier(datasets, floors)
		if err != nil {
			return nil, err
		}
		if _, err := n.reg.Register(localizer.FloorKey(n.building), fc); err != nil {
			return nil, err
		}
		cfg.Logf("node: registered floor classifier over floors %v", floors)
	}

	n.engine, err = serve.New(n.reg, cfg.Engine)
	if err != nil {
		return nil, err
	}

	if !cfg.DisableTrainer && slices.ContainsFunc(cfg.Backends, func(b string) bool { return strings.TrimSpace(b) == "calloc" }) {
		for i, ds := range datasets {
			floor := floors[i]
			coreCfg := core.DefaultConfig(ds.NumAPs, ds.NumRPs)
			coreCfg.Precision = prec
			tr, err := train.New(n.reg, train.Options{
				Key:        localizer.Key{Building: n.building, Floor: floor, Backend: "calloc"},
				Config:     coreCfg,
				Base:       ds.Train,
				Holdout:    holdoutOf(ds),
				Checkpoint: ckpts[floor],
				Dist:       ds.ErrorMeters,
				Logf:       cfg.Logf,
				Policy:     cfg.Trainer,
			})
			if err != nil {
				n.engine.Close()
				return nil, fmt.Errorf("floor %d trainer: %w", floor, err)
			}
			n.trainers[floor] = tr
		}
	}
	return n, nil
}

// Start launches the background trainers.
func (n *Node) Start() {
	for _, tr := range n.trainers {
		tr.Start()
	}
}

// Close shuts down the trainers first (no new fine-tunes or swaps), then
// drains the engine.
func (n *Node) Close() {
	for _, tr := range n.trainers {
		tr.Close()
	}
	n.engine.Close()
}

// Registry exposes the node's localizer registry — the shard unit a fleet
// control plane swaps checkpoints into.
func (n *Node) Registry() *localizer.Registry { return n.reg }

// Engine exposes the node's micro-batching engine.
func (n *Node) Engine() *serve.Engine { return n.engine }

// Trainer returns the background fine-tune trainer of a global floor index.
func (n *Node) Trainer(floor int) (*train.Trainer, bool) {
	tr, ok := n.trainers[floor]
	return tr, ok
}

// Building is the building ID this node serves.
func (n *Node) Building() int { return n.building }

// Floors returns the sorted global floor indices this node owns.
func (n *Node) Floors() []int {
	out := append([]int(nil), n.floors...)
	sort.Ints(out)
	return out
}

// holdoutOf flattens the online-phase test fingerprints into the validation
// split that gates fine-tune swaps.
func holdoutOf(ds *fingerprint.Dataset) []fingerprint.Sample {
	var out []fingerprint.Sample
	for _, samples := range ds.Test {
		out = append(out, samples...)
	}
	return out
}

// Handler builds the HTTP mux over the engine, registry, and trainers — the
// same /v1/* surface whether the node runs standalone behind
// cmd/calloc-serve or as one shard behind a cluster.Router.
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/localize", n.handleLocalize)
	mux.HandleFunc("POST /v1/localize/batch", n.handleLocalizeBatch)
	mux.HandleFunc("POST /v1/feedback", n.handleFeedback)
	mux.HandleFunc("POST /v1/swap", n.handleSwap)
	mux.HandleFunc("GET /v1/models", func(w http.ResponseWriter, _ *http.Request) {
		n.writeJSON(w, n.reg.List())
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, _ *http.Request) {
		// Engine stats embedded so existing consumers keep their flat keys;
		// wire-level counters ride alongside under "wire", and "kernel"
		// names the ISA path both precisions' products take on this
		// machine.
		n.writeJSON(w, struct {
			serve.Stats
			Wire   WireStats `json:"wire"`
			Kernel string    `json:"kernel"`
		}{n.engine.Stats(), n.wire.snapshot(), mat.Kernel()})
	})
	mux.HandleFunc("GET /v1/trainer", func(w http.ResponseWriter, _ *http.Request) {
		stats := make(map[string]train.Stats, len(n.trainers))
		for floor, tr := range n.trainers {
			stats[fmt.Sprintf("floor_%d", floor)] = tr.Stats()
		}
		n.writeJSON(w, stats)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}
