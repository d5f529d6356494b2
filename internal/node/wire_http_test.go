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
		Wire node.WireStats `json:"wire"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Wire.Batches != 1 || stats.Wire.BatchRows != int64(len(queries)) {
		t.Fatalf("wire stats = %+v, want batches=1 batch_rows=%d", stats.Wire, len(queries))
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
