package cluster_test

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"calloc/internal/cluster"
	"calloc/internal/core"
	"calloc/internal/device"
	"calloc/internal/fingerprint"
	"calloc/internal/floorplan"
	"calloc/internal/localizer"
	"calloc/internal/mat"
	"calloc/internal/node"
	"calloc/internal/serve"
	"calloc/internal/train"
)

// fleetFloors builds two small deterministic floor datasets of one building
// (same AP width, different collection seeds) — one per shard node.
func fleetFloors(t testing.TB) []*fingerprint.Dataset {
	t.Helper()
	spec := floorplan.Spec{
		ID: 77, Name: "FleetTest", VisibleAPs: 24, PathLengthM: 10,
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

func fleetUntrainedWeights(t testing.TB, ds *fingerprint.Dataset) []byte {
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

func fleetPost(t testing.TB, client *http.Client, url string, body any) (int, map[string]any) {
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

// fleetMerged fetches a fan-out-merged router view ({entries, errors}) and
// fails the test on any partial-fleet error.
func fleetMerged(t testing.TB, client *http.Client, url string) []map[string]any {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Entries []map[string]any  `json:"entries"`
		Errors  map[string]string `json:"errors"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Errors) > 0 {
		t.Fatalf("partial fleet view from %s: %v", url, out.Errors)
	}
	return out.Entries
}

// entryKeyMatches reports whether a merged entry's "key" is {floor, "calloc"}.
func entryKeyMatches(e map[string]any, floor int) bool {
	key, ok := e["key"].(map[string]any)
	if !ok {
		return false
	}
	f, ok := key["floor"].(float64)
	return ok && int(f) == floor && key["backend"] == "calloc"
}

// fleetLiveVersion reads floor's calloc live version from the router's merged
// /v1/models, also asserting the owning node annotation.
func fleetLiveVersion(t testing.TB, client *http.Client, routerURL string, floor int, wantNode string) uint64 {
	t.Helper()
	for _, e := range fleetMerged(t, client, routerURL+"/v1/models") {
		if !entryKeyMatches(e, floor) {
			continue
		}
		if e["node"] != wantNode {
			t.Fatalf("floor %d served by node %v, want %q", floor, e["node"], wantNode)
		}
		v, _ := e["version"].(float64)
		return uint64(v)
	}
	t.Fatalf("floor %d calloc model missing from merged /v1/models", floor)
	return 0
}

// TestFleetEndToEnd is the tentpole acceptance test: an in-process 2-node +
// router fleet where node A owns floor 0 and node B owns floor 1 of the same
// building. Floor-less localize traffic is routed by the router's fleet-wide
// floor resolver; feedback through the router fine-tunes node A's model,
// which node A's own holdout gate promotes — all observed through the
// router's merged views. A gated /v1/swap{stage:true} through the router
// reaches the owning shard's trainer, so the per-node promotion machinery
// keeps working in a fleet. Runs under -race in the -short suite.
func TestFleetEndToEnd(t *testing.T) {
	datasets := fleetFloors(t)
	building := datasets[0].BuildingID

	mkNode := func(ds *fingerprint.Dataset, floor int) *node.Node {
		n, err := node.New([]*fingerprint.Dataset{ds}, node.Config{
			Backends:    []string{"calloc"},
			Floors:      []int{floor},
			WeightBlobs: [][]byte{fleetUntrainedWeights(t, ds)},
			Engine:      serve.Options{MaxBatch: 8, Workers: 2},
			Trainer: train.Policy{
				MinFeedback:     4,
				Interval:        25 * time.Millisecond,
				EpochsPerLesson: 8,
				LearningRate:    0.02,
				RegretWindow:    2,
			},
			Logf: t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		n.Start()
		return n
	}
	nodeA, nodeB := mkNode(datasets[0], 0), mkNode(datasets[1], 1)
	srvA, srvB := httptest.NewServer(nodeA.Handler()), httptest.NewServer(nodeB.Handler())
	defer func() { srvA.Close(); srvB.Close(); nodeA.Close(); nodeB.Close() }()

	if got := nodeB.Floors(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("node B floors = %v, want [1]", got)
	}

	// Fleet-wide floor resolver: fitted over BOTH floors' offline databases,
	// exactly what calloc-serve -router -data f0,f1 does.
	fc, err := node.FitFloorClassifier(datasets, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}

	shardMap, err := cluster.NewStaticMap(
		map[string]string{"a": srvA.URL, "b": srvB.URL},
		map[cluster.ShardKey]string{
			{Building: building, Floor: 0}: "a",
			{Building: building, Floor: 1}: "b",
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	router, err := cluster.NewRouter(shardMap, cluster.RouterOptions{
		Building:      building,
		Resolve:       fleetResolver(fc),
		ProbeInterval: 50 * time.Millisecond,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	router.Start()
	defer router.Close()
	front := httptest.NewServer(router.Handler())
	defer front.Close()
	client := front.Client()

	// Floor-less routed traffic through the router, drawn from both floors'
	// online queries: the router resolves each fingerprint's floor and the
	// owning shard serves it (the forwarded body stays floor-less, so the
	// shard's own Route path handles it).
	stopTraffic := make(chan struct{})
	var trafficWg sync.WaitGroup
	defer func() {
		select {
		case <-stopTraffic:
		default:
			close(stopTraffic)
		}
		trafficWg.Wait()
	}()
	for c := 0; c < 2; c++ {
		trafficWg.Add(1)
		go func(c int) {
			defer trafficWg.Done()
			queries := append(append([]fingerprint.Sample(nil),
				datasets[0].Test["OP3"]...), datasets[1].Test["OP3"]...)
			for i := 0; ; i++ {
				select {
				case <-stopTraffic:
					return
				default:
				}
				q := queries[(c+i)%len(queries)]
				status, body := fleetPost(t, client, front.URL+"/v1/localize", map[string]any{"rss": q.RSS})
				if status != http.StatusOK {
					t.Errorf("client %d: routed localize status %d (%v)", c, status, body)
					return
				}
				if rp, ok := body["rp"].(float64); !ok || rp < 0 {
					t.Errorf("client %d: bad rp in %v", c, body)
					return
				}
			}
		}(c)
	}

	// Both shards must actually receive routed traffic (the resolver splits
	// the mixed query stream by floor).
	split := time.After(30 * time.Second)
	for {
		st := router.Stats()
		if st.Resolved >= 20 && st.Proxied >= 20 {
			break
		}
		select {
		case <-split:
			t.Fatalf("routed traffic not flowing: %+v", st)
		case <-time.After(25 * time.Millisecond):
		}
	}

	// Feedback through the router (explicit floor 0 → owning shard A) until
	// node A's pipeline fine-tunes and promotes.
	ds0 := datasets[0]
	fbIdx := 0
	deadline := time.After(240 * time.Second)
	for fleetLiveVersion(t, client, front.URL, 0, "a") < 2 {
		for i := 0; i < 8; i++ {
			s := ds0.Train[fbIdx%len(ds0.Train)]
			fbIdx++
			status, body := fleetPost(t, client, front.URL+"/v1/feedback",
				map[string]any{"rss": s.RSS, "rp": s.RP, "floor": 0})
			if status != http.StatusOK {
				t.Fatalf("routed /v1/feedback status %d (%v)", status, body)
			}
		}
		select {
		case <-deadline:
			t.Fatal("no promotion observed through the router")
		case <-time.After(25 * time.Millisecond):
		}
	}

	// The merged trainer view carries node A's promotion under its node name.
	resp, err := client.Get(front.URL + "/v1/trainer")
	if err != nil {
		t.Fatal(err)
	}
	var trainers map[string]map[string]train.Stats
	err = json.NewDecoder(resp.Body).Decode(&trainers)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st := trainers["a"]["floor_0"]; st.Swaps < 1 {
		t.Fatalf("merged /v1/trainer missing node A's promotion: %+v", trainers)
	}

	// A gated push through the router reaches the OWNING shard's trainer:
	// untrained weights tie node B's untrained incumbent, so the holdout
	// gate keeps the live version.
	status, body := fleetPost(t, client, front.URL+"/v1/swap", map[string]any{
		"floor": 1, "stage": true,
		"weights": base64.StdEncoding.EncodeToString(fleetUntrainedWeights(t, datasets[1])),
	})
	if status != http.StatusOK || body["swapped"] != false || body["incumbent"] == nil {
		t.Fatalf("routed gated push = %d %v", status, body)
	}
	if v := fleetLiveVersion(t, client, front.URL, 1, "b"); v != 1 {
		t.Fatalf("losing gated push moved node B to version %d", v)
	}

	// The fleet stats view reports both shards healthy with their load.
	resp, err = client.Get(front.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Router cluster.RouterStats          `json:"router"`
		Shards map[string]cluster.ShardView `json:"shards"`
	}
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b"} {
		v, ok := stats.Shards[name]
		if !ok {
			t.Fatalf("shard %q missing from fleet stats: %+v", name, stats.Shards)
		}
		if v.Health == nil || !v.Health.Healthy {
			t.Fatalf("shard %q not healthy in fleet stats: %+v", name, v.Health)
		}
		if v.Proxied == 0 {
			t.Fatalf("shard %q received no proxied requests", name)
		}
		if len(v.Stats) == 0 {
			t.Fatalf("shard %q stats missing from fleet view", name)
		}
		var nodeStats struct {
			Kernel string `json:"kernel"`
		}
		if err := json.Unmarshal(v.Stats, &nodeStats); err != nil || nodeStats.Kernel != mat.Kernel() {
			t.Fatalf("shard %q kernel = %q (%v), want %q", name, nodeStats.Kernel, err, mat.Kernel())
		}
	}
	if stats.Router.Resolved == 0 || stats.Router.Proxied == 0 {
		t.Fatalf("router stats empty: %+v", stats.Router)
	}

	close(stopTraffic)
	trafficWg.Wait()
	t.Logf("fleet: router stats %+v", router.Stats())
}

// fleetResolver adapts the fitted floor classifier to the router hook, same
// as cmd/calloc-serve's -router -data wiring.
func fleetResolver(fc localizer.Localizer) func([]float64) (int, error) {
	return func(rss []float64) (int, error) {
		if len(rss) != fc.InputDim() {
			return 0, fmt.Errorf("fingerprint has %d features, resolver expects %d", len(rss), fc.InputDim())
		}
		row := make([]float64, len(rss))
		copy(row, rss)
		return fc.PredictInto(nil, mat.FromSlice(1, len(row), row))[0], nil
	}
}

// TestRouterOutOfDomainRSS: through the router — direct and coalesced, with
// and without a floor — a fingerprint value outside the normalised range
// [0, 1] comes back as the owning shard's 400 instead of a confident class,
// and so does labelled feedback carrying one.
func TestRouterOutOfDomainRSS(t *testing.T) {
	datasets := fleetFloors(t)
	building := datasets[0].BuildingID
	var urls []string
	for floor, ds := range datasets {
		n, err := node.New([]*fingerprint.Dataset{ds}, node.Config{
			Backends:    []string{"calloc"},
			Floors:      []int{floor},
			WeightBlobs: [][]byte{fleetUntrainedWeights(t, ds)},
			Engine:      serve.Options{MaxBatch: 8, Workers: 1},
			Trainer: train.Policy{
				MinFeedback: 1 << 30, // never fine-tune during this test
				Interval:    time.Hour,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(n.Handler())
		t.Cleanup(func() { srv.Close(); n.Close() })
		urls = append(urls, srv.URL)
	}
	fc, err := node.FitFloorClassifier(datasets, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	shardMap, err := cluster.NewStaticMap(
		map[string]string{"a": urls[0], "b": urls[1]},
		map[cluster.ShardKey]string{{Building: building, Floor: 0}: "a", {Building: building, Floor: 1}: "b"},
	)
	if err != nil {
		t.Fatal(err)
	}
	good := datasets[1].Test["OP3"][0].RSS
	for _, coalesce := range []int{0, 8} {
		router, err := cluster.NewRouter(shardMap, cluster.RouterOptions{
			Building: building, Resolve: fleetResolver(fc), ProbeInterval: -1, CoalesceBatch: coalesce,
		})
		if err != nil {
			t.Fatal(err)
		}
		front := httptest.NewServer(router.Handler())
		client := front.Client()
		if status, out := fleetPost(t, client, front.URL+"/v1/localize", map[string]any{"rss": good}); status != http.StatusOK {
			t.Fatalf("coalesce %d: in-domain query answered %d (%v)", coalesce, status, out)
		}
		for _, v := range []float64{5, -3, 1e300} {
			rss := append([]float64(nil), good...)
			rss[2] = v
			for _, body := range []map[string]any{{"rss": rss}, {"rss": rss, "floor": 1}} {
				if status, out := fleetPost(t, client, front.URL+"/v1/localize", body); status != http.StatusBadRequest {
					t.Fatalf("coalesce %d: rss[2]=%g (floor set %t) answered %d (%v), want 400",
						coalesce, v, body["floor"] != nil, status, out)
				}
			}
			if status, out := fleetPost(t, client, front.URL+"/v1/feedback",
				map[string]any{"rss": rss, "rp": 0, "floor": 1}); status != http.StatusBadRequest {
				t.Fatalf("coalesce %d: feedback with rss[2]=%g answered %d (%v), want 400", coalesce, v, status, out)
			}
		}
		front.Close()
		router.Close()
	}
}
