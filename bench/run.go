package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"time"
)

// options is one run of one workload.
type options struct {
	wl      workload
	world   world
	seed    int64
	seconds float64 // measured time: 3/4 open loop, 1/4 closed loop
	trace   bool    // replay the ladder afterwards and report the per-layer metrics
	setups  int     // set-up runs this many times; setup_s is the median
	replay  int     // requests the ladder replays at each depth
	outDir  string  // where the spans go
}

// Shares of -seconds the two phases get, and the equal slices each is cut
// into. A timing metric is the mean of the better half of its phase's slices
// (see steady).
const (
	openShare    = 0.75
	closedShare  = 0.25
	openSlices   = 10
	closedSlices = 5
)

// report is the outcome of a run: the end-to-end metrics of an untraced run,
// the per-layer metrics of a traced one.
type report struct {
	attempted, failed int64
	metrics           map[string]float64
	notes             []string
}

// phases is everything the load phases measured, kept for the ladder's
// derived metrics.
type phases struct {
	open    openResult
	openDur time.Duration
	closed  closedResult
	latUs   []float64 // open-loop latencies from the due time, sorted
	gcPause time.Duration
}

// total is every request the load phases sent, by outcome.
func (ph *phases) total() tally {
	all := ph.open.tally
	all.add(ph.closed.tally)
	return all
}

// steady is the mean of the better half of the per-slice values of a phase:
// the lowest for a time, the highest for a rate. The box is one tenant of a
// shared host, and what the neighbours do only ever adds time, a few seconds
// at a stretch; a change to the program moves every slice. Half the slices
// can be disturbed before this number moves, where a statistic over the
// whole phase moves with every one of them. No slices give 0.
func steady(perSlice []float64, higherIsBetter bool) float64 {
	s := sortedCopy(perSlice)
	if len(s) == 0 {
		return 0
	}
	if higherIsBetter {
		slices.Reverse(s)
	}
	var sum float64
	half := s[:max(len(s)/2, 1)]
	for _, v := range half {
		sum += v
	}
	return sum / float64(len(half))
}

// latency is the steady p-th percentile of the open-loop latencies: the
// phase is cut into openSlices by due time and each slice gives its own
// percentile.
func (ph *phases) latency(p float64) float64 {
	bySlice := make([][]float64, openSlices)
	for i, due := range ph.open.due {
		k := min(int(due*openSlices/ph.openDur), openSlices-1)
		bySlice[k] = append(bySlice[k], ph.open.latUs[i])
	}
	var perSlice []float64
	for _, lat := range bySlice {
		if len(lat) > 0 {
			perSlice = append(perSlice, percentile(sortedCopy(lat), p))
		}
	}
	return steady(perSlice, false)
}

func runWorkload(o options) (*report, error) {
	var setupS []float64
	var sys *system
	for i := 0; i < o.setups; i++ {
		if sys != nil {
			// Repeated set-ups are independent repetitions: the memory of
			// one goes back to the system before the next, or peak_rss_mb
			// would grow with their number.
			sys.close()
			sys = nil
			debug.FreeOSMemory()
		}
		var err error
		if sys, err = newSystem(o.wl, o.world, o.seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, sys.times.total.Seconds())
	}
	defer sys.close()

	// Every run starts its load from a collected heap: what set-up left
	// behind otherwise decides when the first collections of the load fall.
	runtime.GC()
	ph := sys.load(o)
	all := ph.total()
	rep := &report{attempted: all.sent, failed: all.failed(), metrics: map[string]float64{}}

	if o.trace {
		lad, err := sys.ladder(o, ph)
		if err != nil {
			return nil, err
		}
		rep.attempted += lad.checks.sent
		rep.failed += lad.checks.failed()
		rep.metrics = lad.metrics
		rep.notes = lad.notes
		return rep, nil
	}

	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	answered := ph.open.errs.clean + ph.open.errs.attacked
	if answered == 0 || ph.closed.rows == 0 {
		return nil, errors.New("no request was answered correctly")
	}
	rep.metrics["setup_s"] = median(setupS)
	rep.metrics["lat_p50_us"] = ph.latency(50)
	rep.metrics["lat_p90_us"] = ph.latency(90)
	rep.metrics["rows_per_s"] = steady(ph.closed.perS, true)
	rep.metrics["ok_share"] = float64(all.ok) / float64(all.sent)
	rep.metrics["mean_err_m"] = (ph.open.errs.cleanSum + ph.open.errs.attackedSum) / float64(answered)
	rep.metrics["peak_rss_mb"] = rss
	return rep, nil
}

// load runs the open-loop phase, then the closed-loop phase.
func (s *system) load(o options) *phases {
	ph := &phases{openDur: time.Duration(o.seconds * openShare * float64(time.Second))}
	closedDur := time.Duration(o.seconds * closedShare * float64(time.Second))
	plan := buildSchedule(o.seed, s.wl.readers, s.wl.rate, ph.openDur, len(s.requests))

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ph.open = s.openLoop(plan, ph.openDur)
	ph.closed = s.closedLoop(o.seed, closedDur)
	runtime.ReadMemStats(&after)
	ph.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	ph.latUs = sortedCopy(ph.open.latUs)
	return ph
}

func tracePath(outDir, workload string) string {
	return filepath.Join(outDir, "trace_"+workload+".json")
}
