package main

import (
	"fmt"
	"os"

	"calloc/internal/cluster"
	"calloc/internal/localizer"
	"calloc/internal/mat"
	"calloc/internal/node"
)

// runRouter wires the fleet router from -shards (and, when -data is given, a
// floor resolver fitted over the full building so floor-less /v1/localize
// requests can be assigned to their owning shard).
func runRouter(f serveFlags) error {
	shardMap, err := cluster.LoadFile(f.shards)
	if err != nil {
		return err
	}
	opts := f.route
	opts.Logf = logf
	if f.data != "" {
		datasets, err := loadDatasets(splitList(f.data))
		if err != nil {
			return err
		}
		var floors []int
		if f.floors != "" {
			if floors, err = parseFloors(f.floors, len(datasets)); err != nil {
				return err
			}
		}
		fc, err := node.FitFloorClassifier(datasets, floors)
		if err != nil {
			return err
		}
		opts.Building = datasets[0].BuildingID
		opts.Resolve = floorResolver(fc)
		fmt.Fprintf(os.Stderr, "calloc-serve: router floor resolver fitted over %d floors\n", len(datasets))
	}
	router, err := cluster.NewRouter(shardMap, opts)
	if err != nil {
		return err
	}
	router.Start()
	fmt.Fprintf(os.Stderr, "calloc-serve: router over %d shards (%s) listening on %s\n",
		len(shardMap.Nodes()), f.shards, f.addr)
	return serveHTTP(f.addr, router.Handler(), func() {
		router.Close()
		st := router.Stats()
		fmt.Fprintf(os.Stderr, "calloc-serve: router proxied %d requests (%d fan-outs, %d retries, %d shard-down)\n",
			st.Proxied, st.Fanouts, st.Retries, st.ShardDown)
	})
}

// floorResolver adapts a floor classifier to the router's resolve hook with
// a single-row predict per call (the classifier adapters pool their scratch,
// so concurrent resolutions are safe).
func floorResolver(fc localizer.Localizer) func(rss []float64) (int, error) {
	return func(rss []float64) (int, error) {
		if len(rss) != fc.InputDim() {
			return 0, fmt.Errorf("fingerprint has %d features, floor resolver expects %d", len(rss), fc.InputDim())
		}
		row := make([]float64, len(rss))
		copy(row, rss)
		dst := fc.PredictInto(nil, mat.FromSlice(1, len(row), row))
		return dst[0], nil
	}
}
