package node_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"calloc/internal/fingerprint"
	"calloc/internal/leakcheck"
	"calloc/internal/node"
	"calloc/internal/serve"
	"calloc/internal/train"
)

// replayBody is an http body that rewinds instead of reallocating, so
// repeated handler invocations in an allocation count reuse one reader.
type replayBody struct{ r *bytes.Reader }

func (b *replayBody) Read(p []byte) (int, error) { return b.r.Read(p) }
func (b *replayBody) Close() error               { return nil }

// nullResponseWriter discards the response; the allocation count is about
// the server wire path, not the recorder's body buffer.
type nullResponseWriter struct {
	h      http.Header
	status int
}

func (w *nullResponseWriter) Header() http.Header         { return w.h }
func (w *nullResponseWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *nullResponseWriter) WriteHeader(code int)        { w.status = code }

// allocNode builds a CALLOC node over datasets with untrained weights and no
// background training loop (feedback still queues, and never fine-tunes).
// It skips the test under -race, where the counts are inflated.
func allocNode(t *testing.T, datasets []*fingerprint.Dataset) *node.Node {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	blobs := make([][]byte, len(datasets))
	for i, ds := range datasets {
		blobs[i] = untrainedWeights(t, ds)
	}
	n, err := node.New(datasets, node.Config{
		Backends:    []string{"calloc"},
		WeightBlobs: blobs,
		Engine:      serve.Options{MaxBatch: 64, Workers: 1},
		Trainer: train.Policy{
			MinFeedback: 1 << 30,
			Interval:    time.Hour,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return n
}

// handlerAllocs posts body to path on h over and over, rewinding one request
// and one response writer, and returns the steady-state allocations per call
// after a warm-up call has grown the pools, lanes and model workspaces.
func handlerAllocs(t *testing.T, h http.Handler, path string, body any) float64 {
	t.Helper()
	blob, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	rd := &replayBody{r: bytes.NewReader(blob)}
	req := httptest.NewRequest(http.MethodPost, path, nil)
	req.Body = rd
	req.ContentLength = int64(len(blob))
	w := &nullResponseWriter{h: make(http.Header)}
	serveOnce := func() {
		rd.r.Seek(0, 0)
		w.status = 0
		h.ServeHTTP(w, req)
		if w.status != 0 && w.status != http.StatusOK {
			t.Fatalf("%s: status %d", path, w.status)
		}
	}
	serveOnce()
	allocs := testing.AllocsPerRun(200, serveOnce)
	t.Logf("%s: %.0f allocs/op", path, allocs)
	return allocs
}

// The handler tests below pin the exact steady-state allocation count the
// tree measures, so any new allocation on the wire path — a per-dispatch
// matrix header, a run queue that re-grows, a pooled request that is not
// returned — fails plain `go test`, and a deliberate one has to move the
// number here. The raw-client round trip (net/http's own cost included) is
// held separately by BenchmarkWirePath against scripts/allocs.json.

// TestLocalizeWireLowAlloc: one /v1/localize with an explicit floor — decode,
// one engine round trip, emit — allocates nothing.
func TestLocalizeWireLowAlloc(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	ds := testFloors(t)[0]
	n := allocNode(t, []*fingerprint.Dataset{ds})
	got := handlerAllocs(t, n.Handler(), "/v1/localize",
		map[string]any{"rss": ds.Test["OP3"][0].RSS, "floor": 0})
	if got != 0 {
		t.Fatalf("localize wire path allocates %.0f/op, want 0", got)
	}
}

// TestRoutedLocalizeWireAlloc: a floor-less /v1/localize on a two-floor node
// makes two lane hops (floor classifier, then the floor's CALLOC) and still
// allocates nothing; naming the backend goes through internBackend.
func TestRoutedLocalizeWireAlloc(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	datasets := testFloors(t)
	n := allocNode(t, datasets)
	got := handlerAllocs(t, n.Handler(), "/v1/localize",
		map[string]any{"rss": datasets[1].Test["OP3"][0].RSS, "backend": "calloc"})
	if got != 0 {
		t.Fatalf("routed localize wire path allocates %.0f/op, want 0", got)
	}
}

// TestLocalizeBatchWireAlloc: a 64-row /v1/localize/batch (one engine batch)
// with one wrong-width row. The good rows cost 3 (the engine's result slice,
// and the Content-Length header a body over 2 KB sets among them); the bad
// row costs 5 more for its formatted error, emitted through appendRowError.
// The predictor's batch fan-out once cost a 4th: its ShardRows closure
// escaped to the heap on every call of 32 rows or more, even when
// AllocsPerRun's single P kept the shards inline.
func TestLocalizeBatchWireAlloc(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	ds := testFloors(t)[0]
	n := allocNode(t, []*fingerprint.Dataset{ds})
	queries := make([]map[string]any, 64)
	for i := range queries {
		q := ds.Test["OP3"][i%len(ds.Test["OP3"])]
		queries[i] = map[string]any{"rss": q.RSS, "floor": 0}
	}
	queries[17] = map[string]any{"rss": []float64{-70, -80}, "floor": 0}
	got := handlerAllocs(t, n.Handler(), "/v1/localize/batch",
		map[string]any{"backend": "calloc", "queries": queries})
	if got != 8 {
		t.Fatalf("64-row batch wire path allocates %.0f/op, want 8", got)
	}
}

// TestFeedbackWireAlloc: /v1/feedback decodes with encoding/json into the
// pooled feedbackReq and queues a copy of the row for the trainer.
func TestFeedbackWireAlloc(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	ds := testFloors(t)[0]
	n := allocNode(t, []*fingerprint.Dataset{ds})
	s := ds.Train[0]
	got := handlerAllocs(t, n.Handler(), "/v1/feedback",
		map[string]any{"rss": s.RSS, "rp": s.RP, "floor": 0})
	if got != 6 {
		t.Fatalf("feedback wire path allocates %.0f/op, want 6", got)
	}
}
