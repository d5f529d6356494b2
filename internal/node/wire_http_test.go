package node_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"calloc/internal/fingerprint"
	"calloc/internal/leakcheck"
	"calloc/internal/mat"
	"calloc/internal/node"
	"calloc/internal/serve"
)

// wireTestNode builds a cheap serving node for wire-level tests: knn models
// (no training loop), both test floors, trainers off.
func wireTestNode(t testing.TB, floors []*fingerprint.Dataset) (*node.Node, *httptest.Server) {
	t.Helper()
	// Registered first so it runs last, after the server and node cleanups
	// below have torn everything down.
	t.Cleanup(leakcheck.Check(t))
	n, err := node.New(floors, node.Config{
		Backends:       []string{"knn"},
		Engine:         serve.Options{MaxBatch: 8},
		DisableTrainer: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	srv := httptest.NewServer(n.Handler())
	t.Cleanup(srv.Close)
	return n, srv
}

// TestLocalizeBodyBound413: the localize wire rejects oversized bodies with
// 413 (instead of buffering them unbounded) and accounts the rejection.
func TestLocalizeBodyBound413(t *testing.T) {
	floors := testFloors(t)
	_, srv := wireTestNode(t, floors[:1])

	// A syntactically valid but far-over-limit body: >1MB of rss values.
	var sb strings.Builder
	sb.WriteString(`{"rss":[`)
	for i := 0; i < 300000; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString("-60.5")
	}
	sb.WriteString(`],"floor":0}`)
	resp, err := http.Post(srv.URL+"/v1/localize", "application/json", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}

	// A normal request still works on the same server afterwards.
	q := floors[0].Test["OP3"][0]
	status, out := postJSON(t, http.DefaultClient, srv.URL+"/v1/localize", map[string]any{"rss": q.RSS, "floor": 0})
	if status != http.StatusOK {
		t.Fatalf("follow-up request: status %d: %v", status, out)
	}

	// The rejection shows up under the stats wire section.
	sresp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var stats struct {
		Requests int64          `json:"requests"`
		Wire     node.WireStats `json:"wire"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Wire.Overflow != 1 {
		t.Fatalf("wire stats = %+v, want overflow=1", stats.Wire)
	}
	if stats.Requests == 0 {
		t.Fatal("engine stats lost their flat keys in the wire-stats wrapper")
	}
}

// TestBatchOverHTTPMatchesSingles: /v1/localize/batch answers exactly what N
// sequential /v1/localize calls answer — across explicit-floor rows,
// classifier-routed rows, and a malformed row that must fail alone with the
// status the single path would have given it.
func TestBatchOverHTTPMatchesSingles(t *testing.T) {
	floors := testFloors(t)
	_, srv := wireTestNode(t, floors)
	client := http.DefaultClient

	type query map[string]any
	queries := []query{
		{"rss": floors[0].Test["OP3"][0].RSS, "floor": 0},
		{"rss": floors[1].Test["OP3"][0].RSS, "floor": 1},
		{"rss": floors[0].Test["OP3"][1].RSS},   // routed through the floor classifier
		{"rss": []float64{1, 2, 3}, "floor": 0}, // wrong width: fails alone
		{"rss": floors[1].Test["OP3"][1].RSS},   // routed
	}

	// Singles first.
	singleStatus := make([]int, len(queries))
	singleOut := make([]map[string]any, len(queries))
	for i, q := range queries {
		singleStatus[i], singleOut[i] = postJSON(t, client, srv.URL+"/v1/localize", q)
	}

	// Then the same rows as one batch.
	status, out := postJSON(t, client, srv.URL+"/v1/localize/batch", map[string]any{"queries": queries})
	if status != http.StatusOK {
		t.Fatalf("batch status %d: %v", status, out)
	}
	results, ok := out["results"].([]any)
	if !ok || len(results) != len(queries) {
		t.Fatalf("batch returned %v", out)
	}
	for i, raw := range results {
		row := raw.(map[string]any)
		if singleStatus[i] != http.StatusOK {
			st, _ := row["status"].(float64)
			if int(st) != singleStatus[i] || row["error"] == nil {
				t.Fatalf("row %d: batch gave %v, single path gave status %d", i, row, singleStatus[i])
			}
			continue
		}
		for _, k := range []string{"rp", "floor", "backend", "version"} {
			if fmt.Sprint(row[k]) != fmt.Sprint(singleOut[i][k]) {
				t.Fatalf("row %d key %q: batch %v != single %v", i, k, row[k], singleOut[i][k])
			}
		}
	}

	// Batch volume is visible in wire stats.
	sresp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var stats struct {
		Wire   node.WireStats `json:"wire"`
		Kernel string         `json:"kernel"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Wire.Batches != 1 || stats.Wire.BatchRows != int64(len(queries)) {
		t.Fatalf("wire stats = %+v, want batches=1 batch_rows=%d", stats.Wire, len(queries))
	}
	if stats.Kernel != mat.Kernel() {
		t.Fatalf("/v1/stats kernel = %q, want %q", stats.Kernel, mat.Kernel())
	}
}

// TestBatchEmptyAndMalformed: degenerate batch frames answer cleanly.
func TestBatchEmptyAndMalformed(t *testing.T) {
	floors := testFloors(t)
	_, srv := wireTestNode(t, floors[:1])

	status, out := postJSON(t, http.DefaultClient, srv.URL+"/v1/localize/batch", map[string]any{"queries": []any{}})
	if status != http.StatusOK {
		t.Fatalf("empty batch: status %d: %v", status, out)
	}
	if results, ok := out["results"].([]any); !ok || len(results) != 0 {
		t.Fatalf("empty batch results = %v", out)
	}

	resp, err := http.Post(srv.URL+"/v1/localize/batch", "application/json", bytes.NewReader([]byte(`{"queries":`)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed batch: status %d, want 400", resp.StatusCode)
	}
}

// postRaw posts a hand-written body and returns the status and response.
func postRaw(t testing.TB, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(out)
}

// rssJSON renders a fingerprint as a JSON array with its first value
// replaced by the literal token first.
func rssJSON(rss []float64, first string) string {
	var sb strings.Builder
	sb.WriteString("[" + first)
	for _, v := range rss[1:] {
		fmt.Fprintf(&sb, ",%v", v)
	}
	sb.WriteString("]")
	return sb.String()
}

// TestNonJSONNumeralsRejected: numerals strconv.ParseFloat takes and JSON
// does not used to pass the fast parser and fail encoding/json, so one body
// had two verdicts. Both endpoints now answer 400 whichever decoder meets
// them, and the spellings JSON does allow still answer.
func TestNonJSONNumeralsRejected(t *testing.T) {
	floors := testFloors(t)
	_, srv := wireTestNode(t, floors[:1])
	rss := floors[0].Test["OP3"][0].RSS
	good := fmt.Sprintf(`{"rss":%s,"floor":0}`, rssJSON(rss, fmt.Sprint(rss[0])))

	for _, num := range []string{"01", ".5", "1.", "-.5", "1.e3", "-01.5", "1e999"} {
		single := fmt.Sprintf(`{"rss":%s,"floor":0}`, rssJSON(rss, num))
		if status, out := postRaw(t, srv.URL+"/v1/localize", single); status != http.StatusBadRequest {
			t.Errorf("/v1/localize with rss[0]=%s: status %d (%s), want 400", num, status, out)
		}
		batch := fmt.Sprintf(`{"queries":[%s,%s]}`, good, single)
		if status, out := postRaw(t, srv.URL+"/v1/localize/batch", batch); status != http.StatusBadRequest {
			t.Errorf("/v1/localize/batch with a row's rss[0]=%s: status %d (%s), want 400", num, status, out)
		}
	}
	for _, num := range []string{"-0", "1E+0", "6.05e-1", "-0.0e1"} {
		single := fmt.Sprintf(`{"rss":%s,"floor":0}`, rssJSON(rss, num))
		if status, out := postRaw(t, srv.URL+"/v1/localize", single); status != http.StatusOK {
			t.Errorf("/v1/localize with rss[0]=%s: status %d (%s), want 200", num, status, out)
		}
	}
}

// TestFastPuntsCounted: a body outside the fast grammar (here an escaped
// backend name) is answered exactly like its plain spelling, and the detour
// through encoding/json shows up in the wire stats.
func TestFastPuntsCounted(t *testing.T) {
	floors := testFloors(t)
	n, srv := wireTestNode(t, floors[:1])
	rss := rssJSON(floors[0].Test["OP3"][0].RSS, fmt.Sprint(floors[0].Test["OP3"][0].RSS[0]))

	plain := fmt.Sprintf(`{"rss":%s,"floor":0,"backend":"knn"}`, rss)
	escaped := fmt.Sprintf(`{"rss":%s,"floor":0,"backend":"k\u006en"}`, rss)
	for _, path := range []string{"/v1/localize", "/v1/localize/batch"} {
		wrap := func(q string) string {
			if path == "/v1/localize" {
				return q
			}
			return `{"queries":[` + q + `,` + q + `]}`
		}
		before := n.WireStats().FastPunts
		wantStatus, want := postRaw(t, srv.URL+path, wrap(plain))
		if got := n.WireStats().FastPunts; wantStatus != http.StatusOK || got != before {
			t.Fatalf("%s plain body: status %d, fast_punts %d -> %d", path, wantStatus, before, got)
		}
		status, out := postRaw(t, srv.URL+path, wrap(escaped))
		if status != wantStatus || out != want {
			t.Fatalf("%s escaped body answered %d %s, plain body %d %s", path, status, out, wantStatus, want)
		}
		if got := n.WireStats().FastPunts; got != before+1 {
			t.Fatalf("%s: fast_punts %d -> %d after one punted body", path, before, got)
		}
	}

	// The counter is on the stats wire under its documented name.
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	stats, err := io.ReadAll(resp.Body)
	if err != nil || !bytes.Contains(stats, []byte(`"fast_punts":2`)) {
		t.Fatalf("/v1/stats lacks fast_punts=2 (read error %v): %s", err, stats)
	}
}
