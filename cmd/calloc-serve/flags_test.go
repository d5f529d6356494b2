package main

import (
	"flag"
	"io"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"calloc/internal/cluster"
	"calloc/internal/node"
	"calloc/internal/serve"
	"calloc/internal/train"
)

func baseFlags() serveFlags {
	return serveFlags{
		data:     "f0.gob,f1.gob",
		backends: "calloc,knn,bayes",
		addr:     ":0",
		node: node.Config{
			Engine:  serve.Options{MaxBatch: 32},
			Trainer: train.Policy{MinFeedback: 16, Interval: time.Second},
		},
	}
}

// The backend and precision rules live in node.Config.Validate
// (TestConfigValidate); the next tests pin only that each flag reaches the
// config validate checks, before any dataset loads.

// Regression: an unknown -backends entry used to surface only after the
// preceding backends had quick-trained — minutes into startup.
func TestValidateRejectsUnknownBackend(t *testing.T) {
	f := baseFlags()
	f.backends = "calloc,svm"
	err := f.validate()
	if err == nil || !strings.Contains(err.Error(), `"svm"`) {
		t.Fatalf("want unknown-backend error naming svm, got %v", err)
	}
}

// Regression: a -weights list shorter than -data used to panic indexing the
// per-floor blob slice inside node construction.
func TestValidateRejectsMismatchedWeightCount(t *testing.T) {
	f := baseFlags()
	f.weights = "only-one.model"
	err := f.validate()
	if err == nil || !strings.Contains(err.Error(), "-weights") {
		t.Fatalf("want -weights count error, got %v", err)
	}
}

func TestValidateRejectsMismatchedFloorCount(t *testing.T) {
	f := baseFlags()
	f.floors = "0,1,2"
	err := f.validate()
	if err == nil || !strings.Contains(err.Error(), "-floors") {
		t.Fatalf("want -floors count error, got %v", err)
	}
	f.floors = "0,x"
	if err := f.validate(); err == nil || !strings.Contains(err.Error(), "-floors") {
		t.Fatalf("want -floors parse error, got %v", err)
	}
}

// A -floors list that names one floor twice must fail at flag validation,
// not after every dataset has loaded.
func TestValidateRejectsDuplicateFloors(t *testing.T) {
	f := baseFlags()
	f.floors = "3,3"
	if err := f.validate(); err == nil || !strings.Contains(err.Error(), "duplicate floor") {
		t.Fatalf("want duplicate-floor error, got %v", err)
	}
}

// An unknown -precision must fail at flag validation, before any dataset
// loads or quick-training starts; the known spellings (and the empty string,
// which means the float64 default) must pass.
func TestValidateRejectsUnknownPrecision(t *testing.T) {
	f := baseFlags()
	f.node.Precision = "fp16"
	err := f.validate()
	if err == nil || !strings.Contains(err.Error(), `"fp16"`) {
		t.Fatalf("want precision error naming fp16, got %v", err)
	}
	for _, ok := range []string{"", "float64", "float32", "int8", " int8 "} {
		f.node.Precision = ok
		if err := f.validate(); err != nil {
			t.Fatalf("precision %q rejected: %v", ok, err)
		}
	}
}

func TestValidateRequiresData(t *testing.T) {
	f := baseFlags()
	f.data = ""
	if err := f.validate(); err == nil || !strings.Contains(err.Error(), "-data") {
		t.Fatalf("want -data error, got %v", err)
	}
}

func TestValidateRouterRequiresShards(t *testing.T) {
	f := parseFlags(t, "-router", "-data", "f0.gob,f1.gob")
	if err := f.validate(); err == nil || !strings.Contains(err.Error(), "-shards") {
		t.Fatalf("want -shards error, got %v", err)
	}
	f.shards = "shards.json"
	if err := f.validate(); err != nil {
		t.Fatalf("router mode with -shards should validate, got %v", err)
	}
}

// Coalescing knobs are router-mode-only; a stray -router-wait with no window
// enabled would otherwise silently do nothing.
func TestValidateRouterCoalesceFlags(t *testing.T) {
	f := parseFlags(t, "-router", "-shards", "shards.json")
	f.route.CoalesceBatch = 32
	f.route.CoalesceWait = time.Millisecond
	if err := f.validate(); err != nil {
		t.Fatalf("coalescing config rejected: %v", err)
	}
	f.route.CoalesceBatch = -1
	if err := f.validate(); err == nil || !strings.Contains(err.Error(), "-router-batch") {
		t.Fatalf("want -router-batch error, got %v", err)
	}
	f.route.CoalesceBatch = 0
	if err := f.validate(); err == nil || !strings.Contains(err.Error(), "-router-wait") {
		t.Fatalf("want -router-wait-without-batch error, got %v", err)
	}

	// Node mode must reject the router knobs outright.
	n := baseFlags()
	n.route.CoalesceBatch = 8
	if err := n.validate(); err == nil || !strings.Contains(err.Error(), "router mode only") {
		t.Fatalf("want router-mode-only error, got %v", err)
	}
}

// Regression: router mode used to accept every node flag and ignore it, so
// "-router -min-delta 1.5" started a router as if the flag were valid.
// Each one is rejected before the shard map is opened.
func TestValidateRouterRejectsNodeFlags(t *testing.T) {
	ok := []string{"-router", "-shards", "missing.json", "-data", "f0.gob,f1.gob", "-floors", "2,3",
		"-addr", ":0", "-retries", "-1", "-probe-interval", "1s"}
	f := parseFlags(t, ok...)
	if err := f.validate(); err != nil {
		t.Fatalf("router flags rejected: %v", err)
	}
	for _, extra := range [][]string{
		{"-min-delta", "1.5"}, {"-weights", "a.model"}, {"-backends", "knn"},
		{"-max-batch", "8"}, {"-train-epochs", "3"}, {"-no-trainer"}, {"-promote-streak", "2"},
	} {
		f := parseFlags(t, append(append([]string(nil), ok...), extra...)...)
		if err := f.validate(); err == nil || !strings.Contains(err.Error(), "node mode only") {
			t.Errorf("%v in router mode: want a node-mode-only error, got %v", extra, err)
		}
	}
}

func TestValidateAcceptsGoodConfig(t *testing.T) {
	f := baseFlags()
	f.weights = "f0.model,f1.model"
	f.floors = "2,3"
	if err := f.validate(); err != nil {
		t.Fatalf("valid flags rejected: %v", err)
	}
}

// parseFlags registers every flag on a fresh FlagSet and parses args.
func parseFlags(t *testing.T, args ...string) *serveFlags {
	t.Helper()
	var f serveFlags
	fs := flag.NewFlagSet("calloc-serve", flag.ContinueOnError)
	f.register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return &f
}

// Every flag is set to a non-default value and must land in its field of
// the config the node or the router is built from. A flag registered
// without a row here fails the test.
func TestEveryFlagReachesItsConfig(t *testing.T) {
	values := map[string]string{
		"data": "a.gob,b.gob", "weights": "a.model,b.model", "backends": "knn, bayes",
		"floors": "2,3", "train-epochs": "4", "precision": "int8", "addr": ":9",
		"max-batch": "7", "workers": "3", "queue": "11", "no-trainer": "true",
		"feedback-min": "5", "trainer-interval": "3s", "finetune-epochs": "9",
		"finetune-lr": "0.25", "min-delta": "0.125", "promote-streak": "4",
		"regret-window": "0", "regret-delta": "0.0625", "router": "true",
		"shards": "s.json", "probe-interval": "-1s", "retries": "3",
		"router-batch": "16", "router-wait": "5ms",
	}
	var f serveFlags
	fs := flag.NewFlagSet("calloc-serve", flag.ContinueOnError)
	f.register(fs)
	fs.VisitAll(func(fl *flag.Flag) {
		if _, ok := values[fl.Name]; !ok {
			t.Errorf("flag -%s has no row in this test", fl.Name)
		}
	})
	var args []string
	for name, v := range values {
		args = append(args, "-"+name+"="+v)
	}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}

	if f.data != "a.gob,b.gob" || f.weights != "a.model,b.model" || f.addr != ":9" ||
		f.shards != "s.json" || !f.router {
		t.Errorf("process flags not bound: %+v", &f)
	}
	cfg, err := f.nodeConfig()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Logf = nil
	want := node.Config{
		Backends:    []string{"knn", "bayes"},
		Floors:      []int{2, 3},
		TrainEpochs: 4,
		Precision:   "int8",
		Engine:      serve.Options{MaxBatch: 7, Workers: 3, QueueCap: 11},
		Trainer: train.Policy{
			MinFeedback: 5, Interval: 3 * time.Second, EpochsPerLesson: 9,
			LearningRate: 0.25, MinDelta: 0.125, PromoteStreak: 4,
			RegretWindow: 0, RegretDelta: 0.0625,
		},
		DisableTrainer: true,
	}
	if !reflect.DeepEqual(cfg, want) {
		t.Errorf("node config\n got %+v\nwant %+v", cfg, want)
	}
	wantRoute := cluster.RouterOptions{
		Retries: 3, ProbeInterval: -time.Second, CoalesceBatch: 16, CoalesceWait: 5 * time.Millisecond,
	}
	if !reflect.DeepEqual(f.route, wantRoute) {
		t.Errorf("router options\n got %+v\nwant %+v", f.route, wantRoute)
	}
}

// With no arguments, the flags that repeat a package default are 0, so the
// package applies its own; the rest carry the CLI's own choices.
func TestFlagDefaults(t *testing.T) {
	f := parseFlags(t)
	want := node.Config{
		TrainEpochs: 10,
		Precision:   "float64",
		Trainer:     train.Policy{RegretWindow: 3},
	}
	if !reflect.DeepEqual(f.node, want) {
		t.Errorf("node config\n got %+v\nwant %+v", f.node, want)
	}
	if !reflect.DeepEqual(f.route, cluster.RouterOptions{}) {
		t.Errorf("router options %+v, want the zero value", f.route)
	}
	if f.backends != "calloc,knn,bayes" || f.addr != ":8080" {
		t.Errorf("backends %q addr %q", f.backends, f.addr)
	}
}

// A non-finite -min-delta never wins a round, so it used to disable
// promotion silently. It must fail at flag validation; the -data file does
// not exist, so an error about it would mean a dataset load was tried.
func TestValidateRejectsNonFiniteMinDelta(t *testing.T) {
	f := parseFlags(t, "-data", filepath.Join(t.TempDir(), "missing.gob"), "-min-delta", "NaN")
	if err := f.validate(); err == nil || !strings.Contains(err.Error(), "MinDelta") {
		t.Fatalf("want MinDelta error, got %v", err)
	}
}

// The shadow-arm flags are gone, and -stage-after was renamed
// -promote-streak: each must fail as unknown rather than be accepted with a
// silently different meaning.
func TestRemovedFlagsAreUnknown(t *testing.T) {
	for _, name := range []string{"ab-fraction", "promote-after", "min-agreement", "stage-after"} {
		var f serveFlags
		fs := flag.NewFlagSet("calloc-serve", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		f.register(fs)
		if err := fs.Parse([]string{"-" + name, "1"}); err == nil || !strings.Contains(err.Error(), "not defined") {
			t.Errorf("-%s: want an unknown-flag error, got %v", name, err)
		}
	}
}
