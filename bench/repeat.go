package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// runAll runs every workload, each in a process of its own so that peak_rss_mb
// and setup_s mean what they mean for a single run, and prints the metrics.
// With repeat > 1 it runs that many sets on the same seed and compares each
// end-to-end metric of the later sets with the first: the program and its
// inputs are identical, so the gap is the benchmark's own noise and has to
// stay inside the bound BENCHMARK.json fixes for the metric. It returns the
// exit code.
func runAll(seed int64, seconds float64, trace, repeat int, outDir string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	sets := make([]map[string]result, repeat)
	for r := range sets {
		sets[r] = make(map[string]result, len(workloads))
		for _, wl := range workloads {
			res, err := runChild(exe, wl.name, seed, seconds, trace, outDir)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: set %d, %s: %v\n", r+1, wl.name, err)
				return 1
			}
			sets[r][wl.name] = res
			fmt.Printf("set %d  %s  attempted %d  failed %d\n", r+1, wl.name, res.Attempted, res.Failed)
			defs := endToEnd
			if trace == 1 {
				defs = layerMetrics
			}
			for _, d := range defs {
				fmt.Printf("  %-34s %16.4f %s\n", d.name, res.Metrics[d.name].Value, d.unit)
			}
		}
	}
	code := 0
	if repeat > 1 && trace == 0 {
		bounds, err := readBounds("BENCHMARK.json")
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Printf("\n%-14s %-12s %14s %14s %8s %8s\n", "workload", "metric", "set 1", "set n", "gap", "bound")
		for r := 1; r < repeat; r++ {
			for _, wl := range workloads {
				for _, d := range endToEnd {
					a, b := sets[0][wl.name].Metrics[d.name].Value, sets[r][wl.name].Metrics[d.name].Value
					gap := math.Abs(a-b) / math.Abs(a)
					verdict := ""
					if gap > bounds[d.name] {
						verdict, code = "  ABOVE THE BOUND", 1
					}
					fmt.Printf("%-14s %-12s %14.4f %14.4f %7.2f%% %7.2f%%%s\n",
						wl.name, d.name, a, b, 100*gap, 100*bounds[d.name], verdict)
				}
			}
		}
	}
	doc, err := json.Marshal(sets[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Printf("%s\n", doc)
	return code
}

// runChild runs one workload in a child process, waits for it and decodes
// the last line it printed.
func runChild(exe, workload string, seed int64, seconds float64, trace int, outDir string) (result, error) {
	cmd := exec.Command(exe,
		"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(trace), "-out", outDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("bad result line: %w", err)
	}
	return res, nil
}

// readBounds returns the regression bound of every end-to-end metric.
func readBounds(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	bounds := make(map[string]float64, len(spec.EndToEnd))
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}
