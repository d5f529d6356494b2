package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"reflect"
	"strconv"
	"strings"

	"calloc/internal/fingerprint"
	"calloc/internal/node"
)

// validate catches flag misconfigurations at startup — an unknown backend, a
// non-finite trainer knob, or mismatched per-floor file counts used to
// surface as a late error (after minutes of quick-training) or a panic. It
// checks here only what a node.Config cannot see, then runs node.Config's
// own rules on the config buildNode would build, before any dataset loads.
func (f *serveFlags) validate() error {
	if f.router {
		if f.shards == "" {
			return errors.New("-router requires -shards")
		}
		var def serveFlags
		def.register(flag.NewFlagSet("defaults", flag.ContinueOnError))
		if f.weights != "" || f.backends != def.backends || !reflect.DeepEqual(f.node, def.node) {
			return errors.New("-weights, -backends and the engine, trainer and model flags apply to node mode only")
		}
		if f.route.CoalesceBatch < 0 {
			return fmt.Errorf("-router-batch must be >= 0 (<= 1 disables coalescing), got %d", f.route.CoalesceBatch)
		}
		if f.route.CoalesceWait != 0 && f.route.CoalesceBatch <= 1 {
			return errors.New("-router-wait requires -router-batch > 1 (nothing gathers without a coalesce window)")
		}
		return nil
	}
	if f.route.CoalesceBatch != 0 || f.route.CoalesceWait != 0 {
		return errors.New("-router-batch/-router-wait apply to router mode only (use -max-batch for the node's engine)")
	}
	if f.data == "" {
		return errors.New("-data is required")
	}
	nData := len(splitList(f.data))
	if f.weights != "" {
		if n := len(splitList(f.weights)); n != nData {
			return fmt.Errorf("-weights names %d files for %d -data floors", n, nData)
		}
	}
	cfg, err := f.nodeConfig()
	if err != nil {
		return err
	}
	_, err = cfg.Validate(nData)
	return err
}

// nodeConfig completes the flag-bound node.Config with the parsed -backends
// and -floors lists: everything buildNode deploys but the weight blobs
// (buildNode reads those files).
func (f *serveFlags) nodeConfig() (node.Config, error) {
	cfg := f.node
	cfg.Backends = splitList(f.backends)
	cfg.Logf = logf
	if f.floors != "" {
		floors, err := parseFloors(f.floors, len(splitList(f.data)))
		if err != nil {
			return node.Config{}, err
		}
		cfg.Floors = floors
	}
	return cfg, nil
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// parseFloors parses the -floors list and checks it matches the -data count.
func parseFloors(s string, nData int) ([]int, error) {
	parts := splitList(s)
	if len(parts) != nData {
		return nil, fmt.Errorf("-floors names %d floors for %d -data files", len(parts), nData)
	}
	out := make([]int, len(parts))
	for i, p := range parts {
		f, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("-floors: bad floor index %q", p)
		}
		out[i] = f
	}
	return out, nil
}

// loadDatasets loads the per-floor dataset files, enforcing a shared AP count.
func loadDatasets(files []string) ([]*fingerprint.Dataset, error) {
	var datasets []*fingerprint.Dataset
	for _, path := range files {
		ds, err := fingerprint.LoadFile(path)
		if err != nil {
			return nil, err
		}
		if len(datasets) > 0 && ds.NumAPs != datasets[0].NumAPs {
			return nil, fmt.Errorf("floor datasets disagree on AP count: %d vs %d (all floors must share the fingerprint width)",
				ds.NumAPs, datasets[0].NumAPs)
		}
		datasets = append(datasets, ds)
	}
	return datasets, nil
}

// runServe wires one serving node from the flags and serves it over HTTP.
func runServe(f serveFlags) error {
	n, datasets, err := buildNode(f)
	if err != nil {
		return err
	}
	n.Start()
	fmt.Fprintf(os.Stderr, "calloc-serve: %s — floors %v × %s (%d models) listening on %s\n",
		datasets[0].BuildingName, n.Floors(), f.backends, n.Registry().Len(), f.addr)
	return serveHTTP(f.addr, n.Handler(), func() {
		n.Close()
		st := n.Engine().Stats()
		fmt.Fprintf(os.Stderr, "calloc-serve: served %d requests in %d batches over %d lanes (avg %.1f/batch, avg latency %s)\n",
			st.Requests, st.Batches, st.Lanes, st.AvgBatch, st.AvgLatency)
	})
}

// buildNode assembles the serving node exactly as runServe deploys it —
// datasets loaded from -data, flags mapped onto node.Config — without
// starting it, so app tests can drive the real construction path.
func buildNode(f serveFlags) (*node.Node, []*fingerprint.Dataset, error) {
	cfg, err := f.nodeConfig()
	if err != nil {
		return nil, nil, err
	}
	datasets, err := loadDatasets(splitList(f.data))
	if err != nil {
		return nil, nil, err
	}
	for _, wf := range splitList(f.weights) {
		blob, err := os.ReadFile(wf)
		if err != nil {
			return nil, nil, err
		}
		cfg.WeightBlobs = append(cfg.WeightBlobs, blob)
	}
	n, err := node.New(datasets, cfg)
	if err != nil {
		return nil, nil, err
	}
	return n, datasets, nil
}
