package node_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"calloc/internal/core"
	"calloc/internal/fingerprint"
	"calloc/internal/leakcheck"
	"calloc/internal/node"
	"calloc/internal/serve"
)

// replayBody is an http body that rewinds instead of reallocating, so
// repeated handler invocations in an allocation count reuse one reader.
type replayBody struct{ r *bytes.Reader }

func (b *replayBody) Read(p []byte) (int, error) { return b.r.Read(p) }
func (b *replayBody) Close() error               { return nil }

// nullResponseWriter discards the response; the allocation budget is about
// the server wire path, not the recorder's body buffer.
type nullResponseWriter struct {
	h      http.Header
	status int
}

func (w *nullResponseWriter) Header() http.Header         { return w.h }
func (w *nullResponseWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *nullResponseWriter) WriteHeader(code int)        { w.status = code }

// TestLocalizeWireLowAlloc pins the pooled handler's steady-state allocation
// budget: decode + engine round trip + emit for one /v1/localize measures
// ZERO handler-side allocations (the seed's generic decoder/encoder path
// spent ~70; BENCH_pr6 measured 116 for the full server wire). The budget of
// 4 leaves room for Go-version drift in runtime internals; the hard
// acceptance gate lives in BenchmarkWirePath — this test catches regressions
// in plain `go test` runs.
func TestLocalizeWireLowAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	t.Cleanup(leakcheck.Check(t))
	floors := testFloors(t)
	ds := floors[0]
	m, err := core.NewModel(core.DefaultConfig(ds.NumAPs, ds.NumRPs))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := m.MarshalWeights()
	if err != nil {
		t.Fatal(err)
	}
	n, err := node.New([]*fingerprint.Dataset{ds}, node.Config{
		Backends:       []string{"calloc"},
		WeightBlobs:    [][]byte{blob},
		Engine:         serve.Options{MaxBatch: 8, Workers: 1},
		DisableTrainer: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	h := n.Handler()

	body, err := json.Marshal(map[string]any{"rss": ds.Test["OP3"][0].RSS, "floor": 0})
	if err != nil {
		t.Fatal(err)
	}
	rd := &replayBody{r: bytes.NewReader(body)}
	req := httptest.NewRequest(http.MethodPost, "/v1/localize", nil)
	req.Body = rd
	req.ContentLength = int64(len(body))
	w := &nullResponseWriter{h: make(http.Header)}

	serveOnce := func() {
		rd.r.Seek(0, 0)
		w.status = 0
		h.ServeHTTP(w, req)
		if w.status != 0 && w.status != http.StatusOK {
			t.Fatalf("status %d", w.status)
		}
	}
	serveOnce() // warm pools, lanes, and the model workspace
	allocs := testing.AllocsPerRun(200, serveOnce)
	t.Logf("localize wire path: %.1f allocs/op", allocs)
	if allocs > 4 {
		t.Fatalf("localize wire path allocates %.1f/op, budget 4", allocs)
	}
}
