package main

import (
	"strings"
	"testing"
	"time"
)

func baseFlags() serveFlags {
	return serveFlags{
		data:            "f0.gob,f1.gob",
		backends:        "calloc,knn,bayes",
		addr:            ":0",
		maxBatch:        32,
		feedbackMin:     16,
		trainerInterval: time.Second,
		abFraction:      8,
	}
}

// The backend, precision and shadow-fraction rules live in node.Config.Validate
// (TestConfigValidate); the next three tests pin only that each flag reaches
// the config validate checks, before any dataset loads.

// Regression: a negative -ab-fraction used to silently disable the shadow
// lane (the promotion gate then never saw exposure) instead of failing.
func TestValidateRejectsNegativeABFraction(t *testing.T) {
	f := baseFlags()
	f.abFraction = -1
	err := f.validate()
	if err == nil || !strings.Contains(err.Error(), "ABFraction") {
		t.Fatalf("want ABFraction error, got %v", err)
	}
}

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
	f.precision = "fp16"
	err := f.validate()
	if err == nil || !strings.Contains(err.Error(), `"fp16"`) {
		t.Fatalf("want precision error naming fp16, got %v", err)
	}
	for _, ok := range []string{"", "float64", "float32", "int8", " int8 "} {
		f.precision = ok
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
	f := baseFlags()
	f.router = true
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
	f := baseFlags()
	f.router = true
	f.shards = "shards.json"
	f.routerBatch = 32
	f.routerWait = time.Millisecond
	if err := f.validate(); err != nil {
		t.Fatalf("coalescing config rejected: %v", err)
	}
	f.routerBatch = -1
	if err := f.validate(); err == nil || !strings.Contains(err.Error(), "-router-batch") {
		t.Fatalf("want -router-batch error, got %v", err)
	}
	f.routerBatch = 0
	if err := f.validate(); err == nil || !strings.Contains(err.Error(), "-router-wait") {
		t.Fatalf("want -router-wait-without-batch error, got %v", err)
	}

	// Node mode must reject the router knobs outright.
	n := baseFlags()
	n.routerBatch = 8
	if err := n.validate(); err == nil || !strings.Contains(err.Error(), "router mode only") {
		t.Fatalf("want router-mode-only error, got %v", err)
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
