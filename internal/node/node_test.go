package node_test

import (
	"bytes"
	"encoding/base64"
	"encoding/gob"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"calloc/internal/core"
	"calloc/internal/device"
	"calloc/internal/fingerprint"
	"calloc/internal/floorplan"
	"calloc/internal/leakcheck"
	"calloc/internal/localizer"
	"calloc/internal/node"
	"calloc/internal/serve"
	"calloc/internal/train"
)

// testFloors builds two small deterministic "floor" datasets of one building
// (same AP width, different collection seeds).
func testFloors(t testing.TB) []*fingerprint.Dataset {
	t.Helper()
	spec := floorplan.Spec{
		ID: 77, Name: "ServeTest", VisibleAPs: 24, PathLengthM: 10,
		Characteristics: "test",
		Model:           floorplan.Registry()[0].Model,
	}
	b := floorplan.Build(spec, 3)
	var out []*fingerprint.Dataset
	for seed := int64(1); seed <= 2; seed++ {
		cfg := fingerprint.DefaultCollectConfig()
		cfg.Seed = seed
		ds, err := fingerprint.Collect(b, device.Registry(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ds)
	}
	return out
}

// untrainedWeights serialises a freshly initialised CALLOC model — the
// weakest plausible deployment, so the online fine-tune loop reliably clears
// its improvement gate.
func untrainedWeights(t testing.TB, ds *fingerprint.Dataset) []byte {
	t.Helper()
	m, err := core.NewModel(core.DefaultConfig(ds.NumAPs, ds.NumRPs))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := m.MarshalWeights()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func postJSON(t testing.TB, client *http.Client, url string, body any) (int, map[string]any) {
	t.Helper()
	blob, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	json.NewDecoder(resp.Body).Decode(&out)
	return resp.StatusCode, out
}

// TestFeedbackFineTuneSwapOverHTTP drives the whole online pipeline through
// the real HTTP surface with -race: routed /v1/localize traffic flows while
// /v1/feedback accumulates labelled samples, the background trainer
// fine-tunes off the request path, and /v1/models eventually reports the
// hot-swapped version — all without a dropped or invalid response.
func TestFeedbackFineTuneSwapOverHTTP(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	datasets := testFloors(t)
	n, err := node.New(datasets, node.Config{
		Backends:    []string{"calloc"},
		WeightBlobs: [][]byte{untrainedWeights(t, datasets[0]), untrainedWeights(t, datasets[1])},
		Engine:      serve.Options{MaxBatch: 8, Workers: 2},
		Trainer: train.Policy{
			MinFeedback:     4,
			Interval:        25 * time.Millisecond,
			EpochsPerLesson: 8,
			LearningRate:    0.02,
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	ts := httptest.NewServer(n.Handler())
	closed := false
	defer func() {
		if !closed {
			ts.Close()
			n.Close()
		}
	}()
	client := ts.Client()
	ds := datasets[0]

	// Routed traffic throughout the fine-tune and swap.
	stopTraffic := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			queries := ds.Test["OP3"]
			for i := 0; ; i++ {
				select {
				case <-stopTraffic:
					return
				default:
				}
				q := queries[(c+i)%len(queries)]
				status, body := postJSON(t, client, ts.URL+"/v1/localize", map[string]any{"rss": q.RSS})
				if status != http.StatusOK {
					t.Errorf("client %d: /v1/localize status %d (%v)", c, status, body)
					return
				}
				rp, ok := body["rp"].(float64)
				if !ok || rp < 0 || int(rp) >= ds.NumRPs {
					t.Errorf("client %d: bad rp in %v", c, body)
					return
				}
			}
		}(c)
	}

	// Stream labelled feedback for floor 0 (re-observed offline reference
	// points) and wait for the background loop to fine-tune and swap.
	floor0 := localizer.Key{Building: ds.BuildingID, Floor: 0, Backend: "calloc"}
	deadline := time.After(120 * time.Second)
	swapped := false
	for !swapped {
		for _, s := range ds.Train[:8] {
			status, body := postJSON(t, client, ts.URL+"/v1/feedback",
				map[string]any{"rss": s.RSS, "rp": s.RP, "floor": 0})
			if status != http.StatusOK {
				t.Fatalf("/v1/feedback status %d (%v)", status, body)
			}
			if _, ok := body["pending"].(float64); !ok {
				t.Fatalf("/v1/feedback response missing pending: %v", body)
			}
		}
		resp, err := client.Get(ts.URL + "/v1/models")
		if err != nil {
			t.Fatal(err)
		}
		var models []localizer.Info
		json.NewDecoder(resp.Body).Decode(&models)
		resp.Body.Close()
		for _, mi := range models {
			if mi.Key == floor0 && mi.Version >= 2 {
				swapped = true
			}
		}
		if swapped {
			break
		}
		select {
		case <-deadline:
			resp, _ := client.Get(ts.URL + "/v1/trainer")
			var st any
			json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			t.Fatalf("no hot-swap observed; trainer stats: %v", st)
		case <-time.After(50 * time.Millisecond):
		}
	}

	// The trainer endpoint must report the swap.
	resp, err := client.Get(ts.URL + "/v1/trainer")
	if err != nil {
		t.Fatal(err)
	}
	var trainerStats map[string]struct {
		Swaps   int64  `json:"swaps"`
		Version uint64 `json:"version"`
	}
	json.NewDecoder(resp.Body).Decode(&trainerStats)
	resp.Body.Close()
	if trainerStats["floor_0"].Swaps < 1 || trainerStats["floor_0"].Version < 2 {
		t.Fatalf("trainer stats do not reflect the swap: %+v", trainerStats)
	}

	// Responses served after the swap carry the new version.
	sawNewVersion := false
	for i := 0; i < 50 && !sawNewVersion; i++ {
		q := ds.Test["OP3"][i%len(ds.Test["OP3"])]
		status, body := postJSON(t, client, ts.URL+"/v1/localize",
			map[string]any{"rss": q.RSS, "floor": 0})
		if status != http.StatusOK {
			t.Fatalf("post-swap localize status %d", status)
		}
		if v, ok := body["version"].(float64); ok && v >= 2 {
			sawNewVersion = true
		}
	}
	if !sawNewVersion {
		t.Fatal("no response carried the swapped version")
	}

	close(stopTraffic)
	wg.Wait()
	ts.Close()
	n.Close()
	closed = true
}

// TestFeedbackValidationOverHTTP: bad feedback is rejected at the edge with
// useful statuses.
func TestFeedbackValidationOverHTTP(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	datasets := testFloors(t)[:1]
	n, err := node.New(datasets, node.Config{
		Backends:    []string{"calloc"},
		WeightBlobs: [][]byte{untrainedWeights(t, datasets[0])},
		Engine:      serve.Options{MaxBatch: 4, Workers: 1},
		Trainer: train.Policy{
			MinFeedback: 1 << 30, // never fine-tune during this test
			Interval:    time.Hour,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(n.Handler())
	defer func() { ts.Close(); n.Close() }()
	client := ts.Client()
	ds := datasets[0]
	good := ds.Train[0]

	if status, _ := postJSON(t, client, ts.URL+"/v1/feedback",
		map[string]any{"rss": good.RSS, "rp": good.RP, "floor": 0}); status != http.StatusOK {
		t.Fatalf("valid feedback rejected with %d", status)
	}
	if status, _ := postJSON(t, client, ts.URL+"/v1/feedback",
		map[string]any{"rss": good.RSS[:2], "rp": good.RP, "floor": 0}); status != http.StatusBadRequest {
		t.Fatalf("short fingerprint accepted (%d)", status)
	}
	if status, _ := postJSON(t, client, ts.URL+"/v1/feedback",
		map[string]any{"rss": good.RSS, "rp": ds.NumRPs + 5, "floor": 0}); status != http.StatusBadRequest {
		t.Fatalf("out-of-range label accepted (%d)", status)
	}
	if status, _ := postJSON(t, client, ts.URL+"/v1/feedback",
		map[string]any{"rss": good.RSS, "rp": good.RP, "floor": 9}); status != http.StatusNotFound {
		t.Fatalf("unknown floor accepted (%d)", status)
	}
	tr, ok := n.Trainer(0)
	if !ok {
		t.Fatal("no trainer for floor 0")
	}
	if tr.Pending() != 1 {
		t.Fatalf("pending %d after one valid sample", tr.Pending())
	}
}

// TestFeedbackFloorlessBodyLandsOnFloorZero: /v1/feedback decodes into a
// pooled struct, and a body with no "floor" means floor 0 — it must not
// inherit the floor of whichever request used the struct before it.
// Floor-1 bodies alternate with floor-less ones through one handler on one
// goroutine, so the pool hands the same struct back each time.
func TestFeedbackFloorlessBodyLandsOnFloorZero(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	datasets := testFloors(t)
	n, err := node.New(datasets, node.Config{
		Backends:    []string{"calloc"},
		WeightBlobs: [][]byte{untrainedWeights(t, datasets[0]), untrainedWeights(t, datasets[1])},
		Engine:      serve.Options{MaxBatch: 4, Workers: 1},
		Trainer: train.Policy{
			MinFeedback: 1 << 30, // never fine-tune during this test
			Interval:    time.Hour,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	h := n.Handler()
	post := func(body map[string]any) {
		t.Helper()
		blob, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/feedback", bytes.NewReader(blob)))
		if w.Code != http.StatusOK {
			t.Fatalf("/v1/feedback %v: status %d (%s)", body["floor"], w.Code, w.Body)
		}
	}
	const pairs = 8
	for i := 0; i < pairs; i++ {
		s1, s0 := datasets[1].Train[i], datasets[0].Train[i]
		post(map[string]any{"rss": s1.RSS, "rp": s1.RP, "floor": 1})
		post(map[string]any{"rss": s0.RSS, "rp": s0.RP})
	}
	for floor := 0; floor < 2; floor++ {
		tr, ok := n.Trainer(floor)
		if !ok {
			t.Fatalf("no trainer for floor %d", floor)
		}
		if got := tr.Pending(); got != pairs {
			t.Errorf("floor %d trainer holds %d samples, want %d", floor, got, pairs)
		}
	}
}

func liveVersion(t testing.TB, client *http.Client, base string, key localizer.Key) uint64 {
	t.Helper()
	resp, err := client.Get(base + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var models []localizer.Info
	if err := json.NewDecoder(resp.Body).Decode(&models); err != nil {
		t.Fatal(err)
	}
	for _, mi := range models {
		if mi.Key == key {
			return mi.Version
		}
	}
	t.Fatalf("%s not in /v1/models", key)
	return 0
}

// TestABPipelineOverHTTP drives the whole deployment path over the real
// HTTP surface with -race: routed /v1/localize traffic flows while
// /v1/feedback fine-tunes a candidate, the winning round goes live through
// SwapIf — the version bump visible in served responses — and the regret
// window, set to a hair trigger, rolls the promotion back to the retained
// incumbent, again visible in /v1/models, /v1/trainer and served responses.
func TestABPipelineOverHTTP(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	datasets := testFloors(t)[:1]
	ds := datasets[0]
	n, err := node.New(datasets, node.Config{
		Backends:    []string{"calloc"},
		WeightBlobs: [][]byte{untrainedWeights(t, ds)},
		Engine:      serve.Options{MaxBatch: 8, Workers: 2},
		Trainer: train.Policy{
			MinFeedback:     4,
			Interval:        25 * time.Millisecond,
			EpochsPerLesson: 8,
			LearningRate:    0.02,
			RegretWindow:    2,
			// The promoted model would have to beat the displaced one by
			// 1000 on every re-check, so the first regret tick rolls back.
			RegretDelta: -1000,
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	ts := httptest.NewServer(n.Handler())
	client := ts.Client()
	key := localizer.Key{Building: ds.BuildingID, Floor: 0, Backend: "calloc"}

	stopTraffic := make(chan struct{})
	var stopOnce sync.Once
	stop := func() { stopOnce.Do(func() { close(stopTraffic) }) }
	var trafficWg sync.WaitGroup
	closed := false
	defer func() {
		if !closed {
			stop()
			trafficWg.Wait()
			ts.Close()
			n.Close()
		}
	}()
	for c := 0; c < 2; c++ {
		trafficWg.Add(1)
		go func(c int) {
			defer trafficWg.Done()
			queries := ds.Test["OP3"]
			for i := 0; ; i++ {
				select {
				case <-stopTraffic:
					return
				default:
				}
				q := queries[(c+i)%len(queries)]
				status, body := postJSON(t, client, ts.URL+"/v1/localize", map[string]any{"rss": q.RSS})
				if status != http.StatusOK {
					t.Errorf("client %d: /v1/localize status %d (%v)", c, status, body)
					return
				}
				if rp, ok := body["rp"].(float64); !ok || rp < 0 || int(rp) >= ds.NumRPs {
					t.Errorf("client %d: bad rp in %v", c, body)
					return
				}
			}
		}(c)
	}
	trainerStats := func() train.Stats {
		t.Helper()
		resp, err := client.Get(ts.URL + "/v1/trainer")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st map[string]train.Stats
		json.NewDecoder(resp.Body).Decode(&st)
		return st["floor_0"]
	}

	// Phase 1 — feedback → fine-tune → holdout win → SwapIf. Feedback
	// streams only until the first promotion.
	fbIdx := 0
	deadline := time.After(240 * time.Second)
	for trainerStats().Swaps == 0 {
		for i := 0; i < 8; i++ {
			s := ds.Train[fbIdx%len(ds.Train)]
			fbIdx++
			status, body := postJSON(t, client, ts.URL+"/v1/feedback",
				map[string]any{"rss": s.RSS, "rp": s.RP, "floor": 0})
			if status != http.StatusOK {
				t.Fatalf("/v1/feedback status %d (%v)", status, body)
			}
		}
		select {
		case <-deadline:
			t.Fatalf("no automatic promotion observed; trainer %+v", trainerStats())
		case <-time.After(25 * time.Millisecond):
		}
	}

	// Phase 2 — the regret watch rolls the promotion back on its first
	// tick: the rolled-back version is the promoted one plus one.
	rollDeadline := time.After(120 * time.Second)
	for trainerStats().Rollbacks == 0 {
		select {
		case <-rollDeadline:
			t.Fatalf("no rollback observed; trainer %+v", trainerStats())
		case <-time.After(25 * time.Millisecond):
		}
	}
	vRolled := liveVersion(t, client, ts.URL, key)
	if vRolled < 3 {
		t.Fatalf("rollback not visible in /v1/models: live v%d, trainer %+v", vRolled, trainerStats())
	}
	sawRolled := false
	for i := 0; i < 50 && !sawRolled; i++ {
		q := ds.Test["OP3"][i%len(ds.Test["OP3"])]
		status, body := postJSON(t, client, ts.URL+"/v1/localize", map[string]any{"rss": q.RSS})
		if status != http.StatusOK {
			t.Fatalf("post-rollback localize status %d", status)
		}
		if v, ok := body["version"].(float64); ok && uint64(v) >= vRolled {
			sawRolled = true
		}
	}
	if !sawRolled {
		t.Fatal("no served response carried the rolled-back version")
	}

	stop()
	trafficWg.Wait()
	ts.Close()
	n.Close()
	closed = true
}

// TestExplicitFloorTrafficPromotes: clients that always name their floor
// never take the routed path, and a winning fine-tune round must still go
// live — the round, not the traffic shape, decides.
func TestExplicitFloorTrafficPromotes(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	datasets := testFloors(t)[:1]
	ds := datasets[0]
	n, err := node.New(datasets, node.Config{
		Backends:    []string{"calloc"},
		WeightBlobs: [][]byte{untrainedWeights(t, ds)},
		Engine:      serve.Options{MaxBatch: 8, Workers: 2},
		Trainer: train.Policy{
			MinFeedback:     1 << 20, // rounds run only when the test calls FineTune
			EpochsPerLesson: 8,
			LearningRate:    0.02,
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(n.Handler())
	defer func() { ts.Close(); n.Close() }()
	client := ts.Client()
	key := localizer.Key{Building: ds.BuildingID, Floor: 0, Backend: "calloc"}

	for _, s := range ds.Train[:40] {
		if status, body := postJSON(t, client, ts.URL+"/v1/feedback",
			map[string]any{"rss": s.RSS, "rp": s.RP, "floor": 0}); status != http.StatusOK {
			t.Fatalf("/v1/feedback: %d %v", status, body)
		}
	}
	for i, q := range ds.Test["OP3"] {
		if i == 200 {
			break
		}
		if status, body := postJSON(t, client, ts.URL+"/v1/localize",
			map[string]any{"rss": q.RSS, "floor": 0}); status != http.StatusOK {
			t.Fatalf("/v1/localize: %d %v", status, body)
		}
	}
	tr, _ := n.Trainer(0)
	res, err := tr.FineTune()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Win {
		t.Fatalf("fine-tuned candidate should beat the untrained incumbent: %+v", res)
	}
	if v := liveVersion(t, client, ts.URL, key); !res.Swapped || v != 2 {
		t.Fatalf("winning round left the live version at %d: %+v", v, res)
	}
}

// TestGatedPushOverHTTP: /v1/swap with "stage": true goes live only when the
// floor's trainer scores the pushed model better than the incumbent. A
// trained model replaces an untrained incumbent; untrained weights pushed
// over it answer 200 with swapped:false and leave the version alone; a floor
// with no trainer answers 409.
func TestGatedPushOverHTTP(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	datasets := testFloors(t)[:1]
	ds := datasets[0]
	untrained := base64.StdEncoding.EncodeToString(untrainedWeights(t, ds))
	m, err := core.NewModel(core.DefaultConfig(ds.NumAPs, ds.NumRPs))
	if err != nil {
		t.Fatal(err)
	}
	tc := core.DefaultTrainConfig()
	tc.EpochsPerLesson = 5
	if _, err := m.Train(ds.Train, tc); err != nil {
		t.Fatal(err)
	}
	blob, err := m.MarshalWeights()
	if err != nil {
		t.Fatal(err)
	}
	trained := base64.StdEncoding.EncodeToString(blob)

	for _, disable := range []bool{false, true} {
		n, err := node.New(datasets, node.Config{
			Backends:       []string{"calloc"},
			WeightBlobs:    [][]byte{untrainedWeights(t, ds)},
			Engine:         serve.Options{MaxBatch: 4, Workers: 1},
			DisableTrainer: disable,
			Logf:           t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(n.Handler())
		client := ts.Client()
		key := localizer.Key{Building: ds.BuildingID, Floor: 0, Backend: "calloc"}
		push := func(weights string) (int, map[string]any) {
			return postJSON(t, client, ts.URL+"/v1/swap", map[string]any{"floor": 0, "stage": true, "weights": weights})
		}
		if disable {
			if status, body := push(trained); status != http.StatusConflict {
				t.Errorf("gated push without a trainer = %d %v, want 409", status, body)
			}
			if v := liveVersion(t, client, ts.URL, key); v != 1 {
				t.Errorf("refused push moved the version to %d", v)
			}
		} else {
			status, body := push(trained)
			if status != http.StatusOK || body["swapped"] != true || body["version"] != 2.0 ||
				body["candidate"] == nil || body["incumbent"] == nil {
				t.Fatalf("trained push over an untrained incumbent = %d %v", status, body)
			}
			status, body = push(untrained)
			if status != http.StatusOK || body["swapped"] != false || body["version"] != 2.0 {
				t.Fatalf("untrained push over a trained incumbent = %d %v", status, body)
			}
			if v := liveVersion(t, client, ts.URL, key); v != 2 {
				t.Fatalf("losing push moved the version to %d", v)
			}
		}
		ts.Close()
		n.Close()
	}
}

// /v1/models must report each CALLOC model's packed-weight precision and
// resident snapshot bytes, and an int8 node's snapshots must be at least 4×
// smaller than the float64 baseline — the footprint win the fleet observes
// per node.
func TestModelsReportPrecisionAndWeightBytes(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	datasets := testFloors(t)[:1]
	blob := untrainedWeights(t, datasets[0])
	footprint := func(precision string) localizer.Info {
		t.Helper()
		n, err := node.New(datasets, node.Config{
			Backends:       []string{"calloc"},
			WeightBlobs:    [][]byte{blob},
			Precision:      precision,
			Engine:         serve.Options{MaxBatch: 4, Workers: 1},
			DisableTrainer: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		ts := httptest.NewServer(n.Handler())
		defer ts.Close()
		resp, err := ts.Client().Get(ts.URL + "/v1/models")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var models []localizer.Info
		if err := json.NewDecoder(resp.Body).Decode(&models); err != nil {
			t.Fatal(err)
		}
		if len(models) != 1 {
			t.Fatalf("got %d models, want 1", len(models))
		}
		return models[0]
	}

	f64 := footprint("float64")
	if f64.Precision != "float64" || f64.WeightBytes <= 0 {
		t.Fatalf("float64 node reported precision %q, weight_bytes %d", f64.Precision, f64.WeightBytes)
	}
	i8 := footprint("int8")
	if i8.Precision != "int8" || i8.WeightBytes <= 0 {
		t.Fatalf("int8 node reported precision %q, weight_bytes %d", i8.Precision, i8.WeightBytes)
	}
	if ratio := float64(f64.WeightBytes) / float64(i8.WeightBytes); ratio < 4 {
		t.Fatalf("int8 snapshots only %.2f× smaller than float64 (f64=%d, int8=%d), want ≥4×",
			ratio, f64.WeightBytes, i8.WeightBytes)
	}
}

// TestSwapRejectsCorruptWeights: POST /v1/swap with a weight blob whose
// third tensor is truncated or holds a NaN answers 400 and leaves the live
// model on its old version; a well-formed blob still swaps.
func TestSwapRejectsCorruptWeights(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	datasets := testFloors(t)[:1]
	blob := untrainedWeights(t, datasets[0])
	n, err := node.New(datasets, node.Config{
		Backends:       []string{"calloc"},
		WeightBlobs:    [][]byte{blob},
		Precision:      "float32",
		Engine:         serve.Options{MaxBatch: 4, Workers: 1},
		DisableTrainer: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	ts := httptest.NewServer(n.Handler())
	defer ts.Close()
	client := ts.Client()
	key := localizer.Key{Building: datasets[0].BuildingID, Floor: 0, Backend: "calloc"}
	v0 := liveVersion(t, client, ts.URL, key)

	type tensor struct {
		Name       string
		Rows, Cols int
		Data       []float64
	}
	swap := func(corrupt func(ts []tensor)) int {
		t.Helper()
		var tensors []tensor
		if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&tensors); err != nil {
			t.Fatal(err)
		}
		corrupt(tensors)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(tensors); err != nil {
			t.Fatal(err)
		}
		status, _ := postJSON(t, client, ts.URL+"/v1/swap", map[string]any{
			"floor": 0, "weights": base64.StdEncoding.EncodeToString(buf.Bytes()),
		})
		return status
	}
	for name, corrupt := range map[string]func(ts []tensor){
		"short": func(ts []tensor) { ts[2].Data = ts[2].Data[:len(ts[2].Data)/2] },
		"nan":   func(ts []tensor) { ts[2].Data[3] = math.NaN() },
	} {
		if status := swap(corrupt); status != http.StatusBadRequest {
			t.Fatalf("%s: /v1/swap answered %d, want 400", name, status)
		}
		if v := liveVersion(t, client, ts.URL, key); v != v0 {
			t.Fatalf("%s: rejected swap moved the live version %d -> %d", name, v0, v)
		}
	}
	if status := swap(func([]tensor) {}); status != http.StatusOK {
		t.Fatalf("well-formed swap answered %d", status)
	}
	if v := liveVersion(t, client, ts.URL, key); v <= v0 {
		t.Fatalf("well-formed swap left the version at %d", v)
	}
}

// TestOutOfDomainRSSRejected: a fingerprint value outside the normalised
// range [0, 1] — what radio.Normalize clamps to and every attack projects
// into — is a client error on every wire entry point: 400 on /v1/localize
// (addressed and routed) and /v1/feedback, both counted in client_errors,
// and a per-row 400 in a batch whose good rows are still answered.
func TestOutOfDomainRSSRejected(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	datasets := testFloors(t)
	n, err := node.New(datasets, node.Config{
		Backends:    []string{"calloc"},
		WeightBlobs: [][]byte{untrainedWeights(t, datasets[0]), untrainedWeights(t, datasets[1])},
		Engine:      serve.Options{MaxBatch: 4, Workers: 1},
		Trainer: train.Policy{
			MinFeedback: 1 << 30, // never fine-tune during this test
			Interval:    time.Hour,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(n.Handler())
	defer func() { ts.Close(); n.Close() }()
	client := ts.Client()
	good := datasets[0].Test["OP3"][0]

	var rejected int64
	for _, v := range []float64{5, -3, 1e300, 1.0000001, -1e-9} {
		rss := append([]float64(nil), good.RSS...)
		rss[3] = v
		for _, body := range []map[string]any{{"rss": rss, "floor": 0}, {"rss": rss}} {
			if status, out := postJSON(t, client, ts.URL+"/v1/localize", body); status != http.StatusBadRequest {
				t.Fatalf("/v1/localize with rss[3]=%g (floor set %t): status %d (%v), want 400", v, body["floor"] != nil, status, out)
			}
			rejected++
		}
		status, out := postJSON(t, client, ts.URL+"/v1/localize/batch", map[string]any{"queries": []map[string]any{
			{"rss": good.RSS, "floor": 0}, {"rss": rss, "floor": 0}, {"rss": rss},
		}})
		results, _ := out["results"].([]any)
		if status != http.StatusOK || len(results) != 3 {
			t.Fatalf("batch with rss[3]=%g: status %d (%v)", v, status, out)
		}
		if row := results[0].(map[string]any); row["error"] != nil {
			t.Fatalf("good batch row failed alongside an out-of-domain row: %v", row)
		}
		for i, raw := range results[1:] {
			if row := raw.(map[string]any); row["status"] != float64(http.StatusBadRequest) {
				t.Fatalf("batch row %d with rss[3]=%g answered %v, want a 400 row", i+1, v, row)
			}
		}
		if status, out := postJSON(t, client, ts.URL+"/v1/feedback",
			map[string]any{"rss": rss, "rp": good.RP, "floor": 0}); status != http.StatusBadRequest {
			t.Fatalf("/v1/feedback with rss[3]=%g: status %d (%v), want 400", v, status, out)
		}
		rejected++
	}
	if got := n.WireStats().ClientErrors; got != rejected {
		t.Fatalf("client_errors = %d, want %d", got, rejected)
	}
	if tr, _ := n.Trainer(0); tr.Pending() != 0 {
		t.Fatalf("out-of-domain feedback queued: pending %d", tr.Pending())
	}
	// The range is closed: its end points are ordinary readings.
	edge := append([]float64(nil), good.RSS...)
	edge[0], edge[1] = 0, 1
	if status, out := postJSON(t, client, ts.URL+"/v1/localize", map[string]any{"rss": edge, "floor": 0}); status != http.StatusOK {
		t.Fatalf("/v1/localize with values 0 and 1: status %d (%v)", status, out)
	}
}
