// Command bench is the load-driven benchmark of the serving stack: it builds
// the deployment in-process from the packages' public constructors, drives it
// over loopback sockets with a seeded open-loop then closed-loop generator,
// checks every answer and prints every metric by name and unit.
//
//	bash bench/run.sh --workload single_direct --seed 1 --seconds 25 --trace 0
//	bash bench/run.sh --workload single_direct --seed 1 --seconds 25 --trace 1
//	bash bench/run.sh --workload all --repeat 2
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics. An untraced run reports the end-to-end metrics; a
// traced run replays the ladder and reports the per-layer ones. README.md
// defines the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func newResult(rep *report, defs []metricDef) result {
	res := result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: rep.metrics[d.name], Unit: d.unit}
	}
	return res
}

func main() {
	if len(os.Args) == 2 && os.Args[1] == spinFlag {
		os.Exit(spinMain())
	}
	os.Exit(run())
}

// run is main with an exit code, so that what it defers happens first.
func run() int {
	name := flag.String("workload", "", "workload to run: "+workloadNames()+", or all")
	seed := flag.Int64("seed", 1, "seed of the traffic: online fingerprints, attacked half, request order, arrival schedule")
	seconds := flag.Float64("seconds", 25, "measured seconds per run: 3/4 open loop, 1/4 closed loop")
	trace := flag.Int("trace", 0, "1 replays the ladder after the load phases and reports the per-layer metrics")
	repeat := flag.Int("repeat", 1, "with -workload all: run this many sets and compare them against the bounds in BENCHMARK.json")
	outDir := flag.String("out", "bench/out", "directory the spans of a traced run are written to")
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		return 2
	}

	if *name == "all" {
		return runAll(*seed, *seconds, *trace, *repeat, *outDir)
	}
	wl, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (known: %s, all)\n", *name, workloadNames())
		return 2
	}
	o := options{
		wl: wl, world: shippedWorld(), seed: *seed, seconds: *seconds,
		trace: *trace == 1, setups: 2, replay: 300, outDir: *outDir,
	}
	defs := endToEnd
	if o.trace {
		// The per-layer metrics do not include setup_s: one set-up is enough.
		o.setups, defs = 1, layerMetrics
	}
	defer keepAwake()()
	rep, err := runWorkload(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", wl.name, err)
		return 1
	}
	for _, note := range rep.notes {
		fmt.Fprintf(os.Stderr, "bench: %s: %s\n", wl.name, note)
	}
	line, err := json.Marshal(newResult(rep, defs))
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Printf("%s\n", line)
	if rep.failed > 0 {
		fmt.Fprintf(os.Stderr, "bench: %s: %d of %d requests failed\n", wl.name, rep.failed, rep.attempted)
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}
