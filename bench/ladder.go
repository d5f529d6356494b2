package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"calloc/internal/core"
	"calloc/internal/localizer"
	"calloc/internal/mat"
)

// span is one timed call into a layer. The ladder replays the same request
// at every depth one after the other, so a parent span does not enclose its
// child in time: parent names the depth above, and req_id ties the spans of
// one request together.
type span struct {
	Name    string `json:"name"`
	ReqID   int    `json:"req_id"`
	Parent  string `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is the untraced pass trace.overhead_share compares with.
type tracer struct {
	epoch time.Time
	spans []span
}

func (t *tracer) record(name, parent string, req int, start, end time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{
		Name: name, ReqID: req, Parent: parent,
		StartNs: start.Sub(t.epoch).Nanoseconds(), EndNs: end.Sub(t.epoch).Nanoseconds(),
	})
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// replayReq is one request of the ladder with its input in every form the
// depths take.
type replayReq struct {
	id    int
	r     *request
	floor int         // the floor that answers it
	rows  [][]float64 // as serve takes it
	x     *mat.Matrix // as localizer, core and mat take it
}

// memWriter is the in-memory http.ResponseWriter of the handler depths.
type memWriter struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (w *memWriter) Header() http.Header { return w.header }

func (w *memWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
}

func (w *memWriter) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.body.Write(b)
}

// serve runs one POST through h and returns when the handler does.
func (w *memWriter) serve(h http.Handler, path string, body []byte) (start, end time.Time) {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	clear(w.header)
	w.status = 0
	w.body.Reset()
	start = time.Now()
	h.ServeHTTP(w, req)
	return start, time.Now()
}

// depthCall runs one request at one depth and says when the layer's exported
// entry point was entered and left and whether the answer was the reference.
type depthCall func(q *replayReq) (start, end time.Time, ok bool)

type ladderResult struct {
	metrics map[string]float64
	checks  tally
	notes   []string
}

// ladderWarmup calls go down each depth before it is timed.
const ladderWarmup = 10

// pass replays every request through call, records a span for each and
// returns the median duration in microseconds.
func (l *ladderResult) pass(tr *tracer, name, parent string, reqs []replayReq, call depthCall) float64 {
	for i := 0; i < min(ladderWarmup, len(reqs)); i++ {
		call(&reqs[i])
	}
	us := make([]float64, 0, len(reqs))
	for i := range reqs {
		start, end, ok := call(&reqs[i])
		tr.record(name, parent, reqs[i].id, start, end)
		us = append(us, float64(end.Sub(start))/float64(time.Microsecond))
		l.checks.sent++
		if ok {
			l.checks.ok++
		} else {
			l.checks.mismatched++
		}
	}
	return median(us)
}

// timeP50 is the median duration of n calls of fn, in microseconds, after a
// few unmeasured ones.
func timeP50(n int, fn func()) float64 {
	for i := 0; i < ladderWarmup; i++ {
		fn()
	}
	us := make([]float64, n)
	for i := range us {
		start := time.Now()
		fn()
		us[i] = float64(time.Since(start)) / float64(time.Microsecond)
	}
	return median(us)
}

// ladder is the traced run: after the load phases it replays o.replay seeded
// requests of the workload sequentially at every depth of the stack, from
// the socket down to one GEMM, timing each layer from outside through its
// exported entry point, and derives the per-layer metrics.
func (s *system) ladder(o options, ph *phases) (*ladderResult, error) {
	l := &ladderResult{metrics: map[string]float64{}}
	m := l.metrics
	for _, d := range layerMetrics {
		m[d.name] = 0 // every metric is reported on every workload; 0 where the layer is absent
	}

	order := rand.New(rand.NewSource(o.seed + 6)).Perm(len(s.requests))
	order = order[:min(o.replay, len(order))]
	reqs := make([]replayReq, len(order))
	for i, k := range order {
		r := &s.requests[k]
		q := replayReq{id: i, r: r, floor: s.queries[r.rows[0]].wantFloor, x: s.matrix(r.rows)}
		for _, row := range r.rows {
			q.rows = append(q.rows, s.queries[row].rss)
		}
		reqs[i] = q
	}

	tr := &tracer{epoch: time.Now()}
	ck := newChecker(s)
	ctx := context.Background()
	mw := &memWriter{header: http.Header{}}
	path := "/v1/localize"
	if s.wl.batch {
		path = "/v1/localize/batch"
	}

	// Depth 1, twice: without and with span recording.
	roundTrip := func(rc *rawConn) depthCall {
		return func(q *replayReq) (time.Time, time.Time, bool) {
			start := time.Now()
			status, body, err := rc.roundTrip(q.r.wire)
			end := time.Now()
			return start, end, err == nil && ck.check(q.r, status, body)
		}
	}
	untraced := l.pass(nil, "client.roundtrip", "", reqs, roundTrip(s.conns[0]))
	traced := l.pass(tr, "client.roundtrip", "", reqs, roundTrip(s.conns[0]))
	m["client.roundtrip_us"] = untraced
	m["trace.overhead_share"] = traced/untraced - 1
	above, aboveUs := "client.roundtrip", untraced

	// step times the next depth down and books the difference as the self
	// time of the depth above.
	step := func(name, selfOf string, call depthCall) {
		us := l.pass(tr, name, above, reqs, call)
		m[name+"_us"] = us
		m[selfOf+".self_us"] = aboveUs - us
		above, aboveUs = name, us
	}

	if s.wl.routed {
		h := s.router.Handler()
		step("cluster.handler", "transport", func(q *replayReq) (time.Time, time.Time, bool) {
			start, end := mw.serve(h, path, q.r.body)
			return start, end, ck.check(q.r, mw.status, mw.body.Bytes())
		})
	}
	handlers := make([]http.Handler, numFloors) // by floor
	for f := range handlers {
		handlers[f] = s.nodeOf(f).Handler()
	}
	selfOf := "transport"
	if s.wl.routed {
		selfOf = "cluster" // its self time holds the second HTTP transaction
	}
	step("node.handler", selfOf, func(q *replayReq) (time.Time, time.Time, bool) {
		start, end := mw.serve(handlers[q.floor], path, q.r.body)
		return start, end, ck.check(q.r, mw.status, mw.body.Bytes())
	})

	step("serve.call", "node", func(q *replayReq) (time.Time, time.Time, bool) {
		eng := s.nodeOf(q.floor).Engine()
		if s.wl.batch {
			start := time.Now()
			res, err := eng.LocalizeBatch(ctx, s.posKey(q.floor), q.rows)
			end := time.Now()
			ok := err == nil && len(res) == len(q.rows)
			for j := 0; ok && j < len(res); j++ {
				ok = res[j].Err == nil && res[j].Class == s.queries[q.r.rows[j]].wantRP
			}
			return start, end, ok
		}
		start := time.Now()
		res, err := eng.Route(ctx, s.building, backend, q.rows[0])
		end := time.Now()
		want := &s.queries[q.r.rows[0]]
		return start, end, err == nil && res.Class == want.wantRP && res.Floor == want.wantFloor
	})

	floorDst, dst := make([]int, 1), make([]int, batchRows)
	rightRPs := func(q *replayReq, got []int) bool {
		for j, rp := range got {
			if rp != s.queries[q.r.rows[j]].wantRP {
				return false
			}
		}
		return true
	}
	step("localizer.predict", "serve", func(q *replayReq) (time.Time, time.Time, bool) {
		reg := s.nodeOf(q.floor).Registry()
		start := time.Now()
		floor := q.floor
		if !s.wl.batch {
			// A single-floor node registers no floor stage; Route skips it too.
			if snap, ok := reg.Get(localizer.FloorKey(s.building)); ok {
				floor = snap.Localizer.PredictInto(floorDst, q.x)[0]
			}
		}
		snap, ok := reg.Get(s.posKey(floor))
		if !ok {
			return start, time.Now(), false
		}
		got := snap.Localizer.PredictInto(dst[:q.x.Rows], q.x)
		return start, time.Now(), floor == q.floor && rightRPs(q, got)
	})

	models := make([]*core.Model, numFloors)
	preds := make([]*core.Predictor, numFloors)
	for f := range models {
		var err error
		if models[f], err = s.model(f); err != nil {
			return nil, err
		}
		preds[f] = models[f].Predictor()
	}
	step("core.predict", "localizer", func(q *replayReq) (time.Time, time.Time, bool) {
		start := time.Now()
		got := preds[q.floor].PredictBatchInto(dst[:q.x.Rows], q.x)
		return start, time.Now(), rightRPs(q, got)
	})

	cfg := models[0].Cfg
	w := mat.PackPrec(randomMatrix(cfg.NumAPs, cfg.EmbedDim, o.seed), mat.PrecFloat32)
	bias := make([]float64, cfg.EmbedDim)
	out := mat.New(batchRows, cfg.EmbedDim)
	gemm := func(x *mat.Matrix) {
		mat.MulPackedBiasActInto(mat.FromSlice(x.Rows, cfg.EmbedDim, out.Data[:x.Rows*cfg.EmbedDim]), x, w, bias, mat.ActReLU)
	}
	m["mat.gemm_us"] = l.pass(tr, "mat.gemm", above, reqs, func(q *replayReq) (time.Time, time.Time, bool) {
		start := time.Now()
		gemm(q.x)
		return start, time.Now(), true
	})

	if err := tr.write(tracePath(o.outDir, s.wl.name)); err != nil {
		return nil, err
	}
	m["trace.spans"] = float64(len(tr.spans))

	if err := s.layerExtras(o, l, reqs, gemm); err != nil {
		return nil, err
	}
	s.phaseMetrics(l, ph)
	return l, nil
}

func randomMatrix(rows, cols int, seed int64) *mat.Matrix {
	rng := rand.New(rand.NewSource(seed))
	x := mat.New(rows, cols)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	return x
}

// layerExtras measures what the ladder's depths do not: the router's parts,
// the feedback endpoint, a registry swap, the precision matrix of the model,
// one standalone training run, the GEMM at both row counts and one fine-tune
// round.
func (s *system) layerExtras(o options, l *ladderResult, reqs []replayReq, gemm func(*mat.Matrix)) error {
	m := l.metrics
	if s.wl.routed {
		var i int
		m["cluster.resolve_us"] = timeP50(len(reqs), func() {
			// The only error is a wrong width, and these rows were served.
			_, _ = s.resolve(reqs[i%len(reqs)].rows[0])
			i++
		})
		// The same queries with their floor named, straight to the owning
		// node: what a client pays without the router in between.
		conns := make([]*rawConn, len(s.nodes))
		for f, addr := range s.nodeAddr {
			rc, err := dialRaw(addr)
			if err != nil {
				return err
			}
			defer rc.close()
			conns[f] = rc
		}
		direct := make([]replayReq, len(reqs))
		for k, q := range reqs {
			r := s.singleRequest(q.r.rows[0], q.floor)
			direct[k] = replayReq{id: q.id, r: &r, floor: q.floor}
		}
		ck := newChecker(s)
		directUs := l.pass(nil, "", "", direct, func(q *replayReq) (time.Time, time.Time, bool) {
			start := time.Now()
			status, body, err := conns[q.floor].roundTrip(q.r.wire)
			end := time.Now()
			return start, end, err == nil && ck.check(q.r, status, body)
		})
		m["cluster.hop_us"] = m["client.roundtrip_us"] - directUs
	}

	// /v1/feedback through the handler of floor 0's node. The samples stay
	// pending until the fine-tune round at the end.
	h := s.nodeOf(0).Handler()
	mw := &memWriter{header: http.Header{}}
	var fb []float64
	for _, r := range s.feedback[:min(batchRows, len(s.feedback))] {
		start, end := mw.serve(h, "/v1/feedback", r.body)
		fb = append(fb, float64(end.Sub(start))/float64(time.Microsecond))
		l.checks.sent++
		if mw.status == http.StatusOK {
			l.checks.ok++
		} else {
			l.checks.badStatus++
		}
	}
	m["node.feedback_us"] = median(fb)

	served, err := s.position(0)
	if err != nil {
		return err
	}
	scratch := localizer.NewRegistry()
	if _, err := scratch.Register(s.posKey(0), served); err != nil {
		return err
	}
	m["localizer.swap_us"] = timeP50(1000, func() {
		// Swapping in the registered localizer itself cannot change a shape.
		_, _ = scratch.Swap(s.posKey(0), served)
	})

	// The served model's weights at each precision and row count.
	model, err := s.model(0)
	if err != nil {
		return err
	}
	blob, err := model.MarshalWeights()
	if err != nil {
		return err
	}
	var idx []int
	for i := 0; len(idx) < batchRows; i++ {
		idx = append(idx, i%len(s.queries))
	}
	x64 := s.matrix(idx)
	x1 := mat.FromSlice(1, x64.Cols, x64.Data[:x64.Cols])
	want := model.PredictBatchInto(nil, x64)
	dst := make([]int, batchRows)
	for _, prec := range []mat.Precision{mat.PrecFloat32, mat.PrecFloat64, mat.PrecInt8} {
		cfg := model.Cfg
		cfg.Precision = prec
		clone, err := core.NewModel(cfg)
		if err != nil {
			return err
		}
		if err := clone.SetMemory(s.data[0].Train); err != nil {
			return err
		}
		if err := clone.UnmarshalWeights(blob); err != nil {
			return err
		}
		p := clone.Predictor()
		if prec == mat.PrecFloat32 {
			// The clone is the served model again, bit for bit.
			l.checks.sent++
			if slices.Equal(p.PredictBatchInto(dst, x64), want) {
				l.checks.ok++
			} else {
				l.checks.mismatched++
			}
		}
		name := "core.predict_us." + prec.String()
		m[name+".r1"] = timeP50(400, func() { p.PredictBatchInto(dst[:1], x1) })
		m[name+".r64"] = timeP50(100, func() { p.PredictBatchInto(dst, x64) })
		if prec != mat.PrecFloat64 {
			_, weightBytes := clone.Footprint()
			m["core.weight_bytes."+prec.String()] = float64(weightBytes)
		}
	}

	fresh, err := core.NewModel(model.Cfg)
	if err != nil {
		return err
	}
	if err := fresh.SetMemory(s.data[0].Train); err != nil {
		return err
	}
	tc := core.DefaultTrainConfig()
	tc.EpochsPerLesson = o.world.trainEpochs
	start := time.Now()
	if _, err := fresh.Train(s.data[0].Train, tc); err != nil {
		return err
	}
	m["core.train_s"] = time.Since(start).Seconds()

	// Computed from the shapes, not measured: the five GEMMs of one forward
	// pass (embedding, query projection, scores, value mix, classifier) and
	// the packed bytes they stream.
	cfg, mem := model.Cfg, model.MemorySize()
	m["mat.macs_per_query"] = float64(cfg.NumAPs*cfg.EmbedDim + cfg.EmbedDim*cfg.AttnDim +
		cfg.AttnDim*mem + mem*cfg.NumRPs + cfg.NumRPs*cfg.NumRPs)
	_, weightBytes := model.Footprint()
	m["mat.weight_bytes_per_query"] = float64(weightBytes)
	macs := float64(cfg.NumAPs * cfg.EmbedDim)
	m["mat.gemm_ns_per_mac.float32.r1"] = timeP50(2000, func() { gemm(x1) }) * 1000 / macs
	m["mat.gemm_ns_per_mac.float32.r64"] = timeP50(200, func() { gemm(x64) }) * 1000 / (macs * batchRows)

	// One synchronous fine-tune round on the samples fed back above, with
	// nothing else running. It comes last: a winning round swaps the served
	// model of floor 0.
	tr, ok := s.nodeOf(0).Trainer(0)
	if !ok {
		return errors.New("node has no fine-tune trainer for floor 0")
	}
	start = time.Now()
	round, err := tr.FineTune()
	if err != nil {
		return err
	}
	m["train.round_s"] = time.Since(start).Seconds()
	if round.Swapped {
		m["train.swapped"] = 1
	}
	return nil
}

// phaseMetrics fills in what the load phases and the public Stats()
// snapshots give: the client's view, counters and process costs.
func (s *system) phaseMetrics(l *ladderResult, ph *phases) {
	m := l.metrics
	m["client.lat_p99_us"] = percentile(ph.latUs, 99)
	m["client.lat_p999_us"] = percentile(ph.latUs, 99.9)
	m["client.lat_max_us"] = percentile(ph.latUs, 100)
	m["client.gen_late_p99_us"] = percentile(sortedCopy(ph.open.lateUs), 99)
	if m["client.gen_late_p99_us"] > 100 {
		l.notes = append(l.notes, fmt.Sprintf(
			"unresolved: the generator ran %.0f us late at p99 (limit 100 us); latencies include its own delay",
			m["client.gen_late_p99_us"]))
	}
	all := ph.total()
	m["client.sent"] = float64(all.sent)
	m["client.ok"] = float64(all.ok)
	m["client.failed"] = float64(all.failed())
	m["client.mismatched"] = float64(all.mismatched)
	if p50 := ph.latency(50); p50 > 0 {
		m["client.queue_share"] = 1 - m["client.roundtrip_us"]/p50
	}

	if s.router != nil {
		st := s.router.Stats()
		m["cluster.proxied"] = float64(st.Proxied)
		m["cluster.retries"] = float64(st.Retries)
		m["cluster.shard_down"] = float64(st.ShardDown)
		m["cluster.coalesced"] = float64(st.Coalesced)
	}
	var latencyNs float64
	for _, n := range s.nodes {
		ws := n.WireStats()
		m["node.wire_client_errors"] += float64(ws.ClientErrors)
		m["node.wire_overflows"] += float64(ws.Overflow)
		st := n.Engine().Stats()
		m["serve.batches"] += float64(st.Batches)
		m["serve.rows"] += float64(st.Rows)
		m["serve.queue_full_waits"] += float64(st.QueueFullWaits)
		m["serve.misroutes"] += float64(st.Misroutes)
		latencyNs += float64(st.AvgLatency) * float64(st.Rows)
	}
	if m["serve.batches"] > 0 {
		m["serve.avg_batch"] = m["serve.rows"] / m["serve.batches"]
		m["serve.avg_latency_us"] = latencyNs / m["serve.rows"] / 1000
	}
	m["node.new_s"] = s.times.nodeNew.Seconds()
	m["attack.craft_us_per_row"] = float64(s.times.craftPerRow) / float64(time.Microsecond)
	m["fingerprint.collect_s"] = s.times.collect.Seconds()

	e := ph.open.errs
	if e.clean > 0 {
		m["eval.mean_err_clean_m"] = e.cleanSum / float64(e.clean)
	}
	if e.attacked > 0 {
		m["eval.mean_err_attacked_m"] = e.attackedSum / float64(e.attacked)
	}
	m["eval.worst_err_m"] = e.worst

	if ph.closed.sent > 0 {
		m["proc.cpu_ms_per_req"] = float64(ph.closed.cpu) / float64(time.Millisecond) / float64(ph.closed.sent)
		m["proc.allocs_per_req"] = float64(ph.closed.mallocs) / float64(ph.closed.sent)
	}
	m["proc.gc_pause_ms"] = float64(ph.gcPause) / float64(time.Millisecond)
	m["proc.goroutines_end"] = float64(runtime.NumGoroutine())
}
