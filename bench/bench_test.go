package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"calloc/internal/device"
	"calloc/internal/fingerprint"
	"calloc/internal/floorplan"
)

// smallWorld is a 12-AP, 8-RP building with one-epoch lessons: every
// constructor the benchmark calls runs, in well under a second.
func smallWorld() world {
	w := shippedWorld()
	w.spec.VisibleAPs, w.spec.PathLengthM = 12, 8
	w.trainEpochs = 1
	return w
}

func TestScheduleIsDeterministicInTheSeed(t *testing.T) {
	const phase = 2 * time.Second
	a := buildSchedule(7, 2, 300, phase, 100)
	b := buildSchedule(7, 2, 300, phase, 100)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different plans")
	}
	if reflect.DeepEqual(a, buildSchedule(8, 2, 300, phase, 100)) {
		t.Fatal("two seeds gave the same plan")
	}
	total := 0
	for c, conn := range a {
		total += len(conn)
		var last time.Duration
		for _, arr := range conn {
			if arr.due < last || arr.due >= phase {
				t.Fatalf("connection %d: due %v after %v in a %v phase", c, arr.due, last, phase)
			}
			if arr.req < 0 || arr.req >= 100 {
				t.Fatalf("connection %d: request %d out of range", c, arr.req)
			}
			last = arr.due
		}
	}
	// 600 expected arrivals, standard deviation ~24.
	if total < 480 || total > 720 {
		t.Fatalf("%d arrivals in %v at 300/s", total, phase)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {91, 10}, {99, 10}, {100, 10}, {10, 1}, {1, 1},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v of 1..10 = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %v, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
}

func TestSteadyIsTheMeanOfTheBetterHalf(t *testing.T) {
	// Ten slices, five of them disturbed: they do not move the number.
	lat := []float64{900, 100, 800, 101, 700, 102, 600, 103, 500, 104}
	if got := steady(lat, false); got != 102 {
		t.Errorf("steady time = %v, want 102", got)
	}
	rate := []float64{50, 48, 20, 51, 30}
	if got := steady(rate, true); got != 50.5 {
		t.Errorf("steady rate = %v, want 50.5", got)
	}
	if got := steady([]float64{7}, false); got != 7 {
		t.Errorf("steady of one slice = %v, want 7", got)
	}
	if got := steady(nil, false); got != 0 {
		t.Errorf("steady of no slices = %v, want 0", got)
	}

	// Latencies land in the slice of their due time; each slice gives its own
	// percentile.
	ph := &phases{openDur: 10 * time.Second}
	for k := 0; k < openSlices; k++ {
		for i := 0; i < 10; i++ {
			ph.open.due = append(ph.open.due, time.Duration(k)*time.Second+time.Duration(i)*time.Millisecond)
			ph.open.latUs = append(ph.open.latUs, float64(1000*k+i+1))
		}
	}
	if got := ph.latency(50); got != 2005 { // slices' p50: 5, 1005, 2005, ..., 9005
		t.Errorf("p50 = %v, want 2005", got)
	}
	if got := ph.latency(90); got != 2009 {
		t.Errorf("p90 = %v, want 2009", got)
	}
}

// TestMain lets the test binary be the spinning child keepAwake starts.
func TestMain(m *testing.M) {
	if len(os.Args) == 2 && os.Args[1] == spinFlag {
		os.Exit(spinMain())
	}
	os.Exit(m.Run())
}

func TestKeepAwakeSpinsIdleAndStops(t *testing.T) {
	before := childPIDs(t)
	stop := keepAwake()
	var spinners int
	var pid string
	for deadline := time.Now().Add(5 * time.Second); spinners < runtime.NumCPU() && time.Now().Before(deadline); {
		time.Sleep(20 * time.Millisecond)
		for _, c := range childPIDs(t) {
			if !slices.Contains(before, c) {
				pid = c
			}
		}
		spinners = 0
		tasks, _ := filepath.Glob("/proc/" + pid + "/task/*/stat")
		for _, task := range tasks {
			data, _ := os.ReadFile(task)
			// Fields after the command: state is the 1st, policy the 39th.
			_, rest, _ := strings.Cut(string(data), ") ")
			if f := strings.Fields(rest); len(f) > 38 && f[38] == strconv.Itoa(schedIdle) {
				spinners++
			}
		}
	}
	if spinners != runtime.NumCPU() {
		t.Skipf("%d SCHED_IDLE threads for %d CPUs: the box refuses the spinners", spinners, runtime.NumCPU())
	}
	stop()
	if after := childPIDs(t); slices.Contains(after, pid) {
		t.Fatalf("child %s outlived stop", pid)
	}
}

// childPIDs lists the children of this process, whichever thread forked them.
func childPIDs(t *testing.T) []string {
	t.Helper()
	lists, _ := filepath.Glob("/proc/self/task/*/children")
	if len(lists) == 0 {
		t.Skip("no /proc/self/task/*/children: kernel without CONFIG_PROC_CHILDREN")
	}
	var pids []string
	for _, list := range lists {
		data, _ := os.ReadFile(list) // a thread may have ended since the glob
		pids = append(pids, strings.Fields(string(data))...)
	}
	return pids
}

func TestScanAnswers(t *testing.T) {
	single := []byte(`{"rp":12,"floor":1,"backend":"calloc","version":3}`)
	got, err := scanAnswers(nil, single, false)
	if err != nil || len(got) != 1 || got[0] != (answer{rp: 12, floor: 1, version: 3, ok: true}) {
		t.Fatalf("single: %+v, %v", got, err)
	}
	batch := []byte(`{"results":[{"version":1,"rp":0,"floor":0,"backend":"a}b"},` +
		`{"error":"row \"2\" {bad}","status":400},{"rp":7,"floor":1,"backend":"calloc","version":2}]}`)
	got, err = scanAnswers(got[:0], batch, true)
	if err != nil || len(got) != 3 {
		t.Fatalf("batch: %+v, %v", got, err)
	}
	if !got[0].ok || got[0].rp != 0 || got[1].ok || !got[2].ok || got[2].rp != 7 || got[2].version != 2 {
		t.Fatalf("batch rows: %+v", got)
	}
	if _, err := scanAnswers(nil, single[:20], false); err == nil {
		t.Fatal("a truncated body scanned clean")
	}
	if got, _ := scanAnswers(nil, []byte(`{"floor":1,"version":3}`), false); got[0].ok {
		t.Fatal("an answer without rp passed")
	}
}

// stubSystem is a system whose front door is h: one query, one request, one
// reader connection. The generator cannot tell it from the real thing.
func stubSystem(t *testing.T, h http.Handler) *system {
	t.Helper()
	w := smallWorld()
	ds, err := fingerprint.Collect(floorplan.Build(w.spec, 1), device.Registry(), fingerprint.DefaultCollectConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := &system{wl: workload{name: "stub", rate: 100, readers: 1}, data: []*fingerprint.Dataset{ds, ds}}
	s.queries = []query{{rss: ds.Train[0].RSS, floor: 0, rp: 3, wantFloor: 0, wantRP: 3}}
	s.requests = []request{s.singleRequest(0, -1)}
	addr, err := s.listen(h)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := dialRaw(addr)
	if err != nil {
		t.Fatal(err)
	}
	s.conns = []*rawConn{rc}
	t.Cleanup(s.close)
	return s
}

func TestStallIsChargedFromTheDueTime(t *testing.T) {
	const (
		gap     = 10 * time.Millisecond
		stall   = 50 * time.Millisecond
		stalled = 5 // the request the stub sits on
	)
	var served atomic.Int64
	s := stubSystem(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) == stalled+1 {
			time.Sleep(stall)
		}
		fmt.Fprint(w, `{"rp":3,"floor":0,"backend":"stub","version":1}`)
	}))
	var plan []arrival
	for i := 0; i < 20; i++ {
		plan = append(plan, arrival{due: time.Duration(i+1) * gap})
	}
	res := s.openLoop([][]arrival{plan}, 250*time.Millisecond)
	if res.failed() != 0 || len(res.latUs) != len(plan) {
		t.Fatalf("%d of %d requests failed: %+v", res.failed(), len(plan), res.tally)
	}
	// The stalled request and the four that came due behind it wait for the
	// stub; each is charged from its own due time, not from when it went out.
	for k := 0; k < 5; k++ {
		want := stall - time.Duration(k)*gap
		got := time.Duration(res.latUs[stalled+k] * float64(time.Microsecond))
		if got < want-time.Millisecond || got > want+8*time.Millisecond {
			t.Errorf("request %d behind the stall: latency %v, want about %v", k, got, want)
		}
	}
	if got := res.latUs[stalled+8]; got > 8000 {
		t.Errorf("request after the backlog drained: latency %.0f us", got)
	}
	// Going out late because the connection was busy is the system's doing,
	// not the generator's.
	if late := percentile(sortedCopy(res.lateUs), 99); late > 5000 {
		t.Errorf("generator lateness p99 = %.0f us with a 50 ms stall in the plan", late)
	}
	if res.errs.clean != int64(len(plan)) || res.errs.worst != 0 {
		t.Errorf("errors scored: %+v", res.errs)
	}
}

func TestWrongAnswersAreCounted(t *testing.T) {
	var served atomic.Int64
	s := stubSystem(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch served.Add(1) {
		case 2:
			fmt.Fprint(w, `{"rp":4,"floor":0,"backend":"stub","version":2}`) // wrong reference point
		case 3:
			http.Error(w, "no", http.StatusServiceUnavailable)
		case 4:
			fmt.Fprint(w, `{"rp":3,"floor":0,"backend":"stub","version":1}`) // version went backwards
		default:
			fmt.Fprint(w, `{"rp":3,"floor":0,"backend":"stub","version":2}`)
		}
	}))
	var plan []arrival
	for i := 0; i < 5; i++ {
		plan = append(plan, arrival{due: time.Duration(i+1) * time.Millisecond})
	}
	res := s.openLoop([][]arrival{plan}, 100*time.Millisecond)
	want := tally{sent: 5, ok: 2, badStatus: 1, mismatched: 2}
	if res.tally != want {
		t.Fatalf("tally %+v, want %+v", res.tally, want)
	}
}

func TestRawConnReadsChunkedAndRedials(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/chunked":
			fmt.Fprint(w, "hello, ")
			w.(http.Flusher).Flush()
			fmt.Fprint(w, "world")
		case "/close":
			w.Header().Set("Connection", "close")
			fmt.Fprint(w, "bye")
		}
	})}
	go func() { _ = srv.Serve(ln) }() // returns ErrServerClosed at Cleanup
	t.Cleanup(func() { srv.Close() })
	rc, err := dialRaw(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.close()
	for _, c := range []struct{ path, want string }{
		{"/chunked", "hello, world"}, {"/close", "bye"}, {"/chunked", "hello, world"},
	} {
		status, body, err := rc.roundTrip(rawRequest(c.path, []byte("{}")))
		if err != nil || status != 200 || string(body) != c.want {
			t.Fatalf("%s: status %d, body %q, err %v", c.path, status, body, err)
		}
	}
}

func TestSpansLinkToTheDepthAbove(t *testing.T) {
	tr := &tracer{epoch: time.Now()}
	depths := []string{"client.roundtrip", "node.handler", "serve.call"}
	for req := 0; req < 3; req++ {
		parent := ""
		for _, name := range depths {
			start := time.Now()
			tr.record(name, parent, req, start, start.Add(time.Microsecond))
			parent = name
		}
	}
	var none *tracer
	none.record("ignored", "", 0, time.Now(), time.Now()) // the untraced pass
	path := filepath.Join(t.TempDir(), "out", "trace.json")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	checkTrace(t, path, len(depths)*3)
}

// checkTrace reads a span file back and checks that it is well formed.
func checkTrace(t *testing.T, path string, wantSpans int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Spans) != wantSpans {
		t.Fatalf("%d spans, want %d", len(doc.Spans), wantSpans)
	}
	type id struct {
		name string
		req  int
	}
	seen := map[id]bool{}
	for _, sp := range doc.Spans {
		seen[id{sp.Name, sp.ReqID}] = true
	}
	for _, sp := range doc.Spans {
		if sp.Name == "" || sp.EndNs < sp.StartNs || sp.StartNs < 0 {
			t.Errorf("malformed span %+v", sp)
		}
		if sp.Parent != "" && !seen[id{sp.Parent, sp.ReqID}] {
			t.Errorf("span %+v names a parent that request has no span for", sp)
		}
	}
}

// TestSmoke runs every workload end to end on the small world, traced, so
// that a constructor call the tree no longer accepts fails here and not in
// the next benchmark run.
func TestSmoke(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			o := options{
				wl: wl, world: smallWorld(), seed: 3, seconds: 0.8,
				trace: true, setups: 1, replay: 20, outDir: t.TempDir(),
			}
			rep, err := runWorkload(o)
			if err != nil {
				t.Fatal(err)
			}
			if rep.failed != 0 || rep.attempted == 0 {
				t.Fatalf("%d of %d requests failed", rep.failed, rep.attempted)
			}
			for _, d := range layerMetrics {
				if _, ok := rep.metrics[d.name]; !ok {
					t.Errorf("traced run does not report %s", d.name)
				}
			}
			if len(rep.metrics) != len(layerMetrics) {
				t.Errorf("traced run reports %d metrics, the table has %d", len(rep.metrics), len(layerMetrics))
			}
			if rep.metrics["client.roundtrip_us"] <= 0 || rep.metrics["core.predict_us"] <= 0 {
				t.Errorf("ladder depths not timed: %v", rep.metrics)
			}
			if rep.metrics["train.round_s"] <= 0 {
				t.Errorf("the fine-tune round was not timed")
			}
			if wl.routed && rep.metrics["cluster.proxied"] < 1 {
				t.Errorf("nothing went through the router")
			}
			checkTrace(t, tracePath(o.outDir, wl.name), int(rep.metrics["trace.spans"]))
		})
	}
	t.Run("untraced", func(t *testing.T) {
		o := options{wl: workloads[0], world: smallWorld(), seed: 4, seconds: 0.8, setups: 2}
		rep, err := runWorkload(o)
		if err != nil {
			t.Fatal(err)
		}
		res := newResult(rep, endToEnd)
		if !res.Correct || len(res.Metrics) != len(endToEnd) {
			t.Fatalf("result %+v", res)
		}
		for _, d := range endToEnd {
			if res.Metrics[d.name].Value <= 0 {
				t.Errorf("%s = %v; end-to-end metrics are never 0", d.name, res.Metrics[d.name].Value)
			}
		}
	})
}

// TestBenchmarkJSON holds BENCHMARK.json and the program together: same
// workloads, same metric names and units, bounds inside the contract.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Paths, []string{"bench"}) || spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", spec.Paths, spec.RunSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q with a why of %d characters, program has %q", i, w.Name, len(w.Why), workloads[i].name)
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the program", len(got), kind, len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s metric %d: %s [%s], program has %s [%s]", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound <= 0 || *m.Bound > 0.25)) {
				t.Errorf("%s: bound %v", m.Name, m.Bound)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd, true)
	same("per_layer", spec.PerLayer, layerMetrics, false)
}
