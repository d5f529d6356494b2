package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// misrouteMagic is the rss[0] value the fake batch shard answers with an
// error row, exercising per-row demux of failures.
const misrouteMagic = 13

// batchShardHandler is a node-shaped shard that answers both the single and
// the batch localize endpoints, echoing rss[0] as the predicted point so
// tests can verify each waiter got ITS row back.
func batchShardHandler(name string, singleCalls, batchCalls *atomic.Int64, batchSizes *[]int, mu *sync.Mutex) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	answer := func(rss []float64) (map[string]any, bool) {
		if len(rss) > 0 && rss[0] == misrouteMagic {
			return nil, false
		}
		rp := 0
		if len(rss) > 0 {
			rp = int(rss[0])
		}
		return map[string]any{"rp": rp, "floor": 0, "backend": name, "version": 1}, true
	}
	mux.HandleFunc("/v1/localize", func(w http.ResponseWriter, r *http.Request) {
		singleCalls.Add(1)
		var q struct {
			RSS []float64 `json:"rss"`
		}
		if err := json.NewDecoder(r.Body).Decode(&q); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		res, ok := answer(q.RSS)
		if !ok {
			http.Error(w, "simulated misroute", http.StatusInternalServerError)
			return
		}
		writeJSON(w, res)
	})
	mux.HandleFunc("/v1/localize/batch", func(w http.ResponseWriter, r *http.Request) {
		batchCalls.Add(1)
		var q struct {
			Queries []struct {
				RSS []float64 `json:"rss"`
			} `json:"queries"`
		}
		if err := json.NewDecoder(r.Body).Decode(&q); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		mu.Lock()
		*batchSizes = append(*batchSizes, len(q.Queries))
		mu.Unlock()
		results := make([]map[string]any, 0, len(q.Queries))
		for _, row := range q.Queries {
			res, ok := answer(row.RSS)
			if !ok {
				res = map[string]any{"error": "simulated misroute", "status": http.StatusInternalServerError}
			}
			results = append(results, res)
		}
		writeJSON(w, map[string]any{"results": results})
	})
	return mux
}

type batchShard struct {
	srv        *httptest.Server
	single     atomic.Int64
	batch      atomic.Int64
	mu         sync.Mutex
	batchSizes []int
}

func newBatchShard(t *testing.T, name string) *batchShard {
	t.Helper()
	s := &batchShard{}
	s.srv = httptest.NewServer(batchShardHandler(name, &s.single, &s.batch, &s.batchSizes, &s.mu))
	t.Cleanup(s.srv.Close)
	return s
}

func (s *batchShard) sizes() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int(nil), s.batchSizes...)
}

func oneShardMap(t *testing.T, url string) *StaticMap {
	t.Helper()
	m, err := NewStaticMap(
		map[string]string{"a": url},
		map[ShardKey]string{{77, 0}: "a"},
	)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// coalesceLocalize fires n concurrent single-query localizes through the
// router handler and returns each request's recorder, indexed by its rss[0].
func coalesceLocalize(t *testing.T, h http.Handler, rss0 []int) []*httptest.ResponseRecorder {
	t.Helper()
	recs := make([]*httptest.ResponseRecorder, len(rss0))
	var wg sync.WaitGroup
	for i, v := range rss0 {
		wg.Add(1)
		go func(i, v int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"rss":[%d,5],"floor":0}`, v)
			req := httptest.NewRequest(http.MethodPost, "/v1/localize", bytes.NewReader([]byte(body)))
			recs[i] = httptest.NewRecorder()
			h.ServeHTTP(recs[i], req)
		}(i, v)
	}
	wg.Wait()
	return recs
}

// TestCoalesceDemuxOneBatch: a full window of concurrent single-query
// proxies reaches the shard as ONE batch call, and every waiter gets its own
// row back. Run under -race this also shakes the window/timer locking.
func TestCoalesceDemuxOneBatch(t *testing.T) {
	shard := newBatchShard(t, "a")
	r := newTestRouter(t, oneShardMap(t, shard.srv.URL), RouterOptions{
		CoalesceBatch: 8, CoalesceWait: 2 * time.Second,
	})
	h := r.Handler()

	rss0 := []int{10, 20, 30, 40, 50, 60, 70, 80}
	recs := coalesceLocalize(t, h, rss0)
	for i, rec := range recs {
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, rec.Code, rec.Body)
		}
		var resp struct {
			RP int `json:"rp"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("request %d: %v (%s)", i, err, rec.Body)
		}
		if resp.RP != rss0[i] {
			t.Fatalf("request %d answered with rp %d — another waiter's row (want %d)", i, resp.RP, rss0[i])
		}
	}
	if got := shard.batch.Load(); got != 1 {
		t.Fatalf("shard saw %d batch calls, want 1 (sizes %v)", got, shard.sizes())
	}
	if got := shard.single.Load(); got != 0 {
		t.Fatalf("shard saw %d single calls alongside the batch", got)
	}
	if sizes := shard.sizes(); len(sizes) != 1 || sizes[0] != len(rss0) {
		t.Fatalf("batch sizes %v, want [%d]", sizes, len(rss0))
	}
	st := r.Stats()
	if st.Coalesced != int64(len(rss0)) || st.CoalescedBatches != 1 || st.Proxied != int64(len(rss0)) {
		t.Fatalf("stats = %+v", st)
	}
}

// TestCoalesceErrorRowDemux: an error row inside the coalesced batch reaches
// exactly the waiter that caused it, with the status it would have received
// on the single path; everyone else is unaffected.
func TestCoalesceErrorRowDemux(t *testing.T) {
	shard := newBatchShard(t, "a")
	r := newTestRouter(t, oneShardMap(t, shard.srv.URL), RouterOptions{
		CoalesceBatch: 4, CoalesceWait: 2 * time.Second,
	})
	h := r.Handler()

	rss0 := []int{7, misrouteMagic, 9, 11}
	recs := coalesceLocalize(t, h, rss0)
	for i, rec := range recs {
		if rss0[i] == misrouteMagic {
			if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "simulated misroute") {
				t.Fatalf("misrouting request: status %d: %s", rec.Code, rec.Body)
			}
			continue
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d failed alongside the bad row: %d: %s", i, rec.Code, rec.Body)
		}
		var resp struct {
			RP int `json:"rp"`
		}
		json.Unmarshal(rec.Body.Bytes(), &resp)
		if resp.RP != rss0[i] {
			t.Fatalf("request %d = rp %d, want %d", i, resp.RP, rss0[i])
		}
	}
	if got := shard.batch.Load(); got != 1 {
		t.Fatalf("shard saw %d batch calls, want 1", got)
	}
}

// TestCoalesceSingleWindowPassthrough: a window that closes with one request
// is proxied as a plain /v1/localize — an idle router never pays batch
// framing for nothing.
func TestCoalesceSingleWindowPassthrough(t *testing.T) {
	shard := newBatchShard(t, "a")
	r := newTestRouter(t, oneShardMap(t, shard.srv.URL), RouterOptions{
		CoalesceBatch: 8, CoalesceWait: time.Millisecond,
	})
	w := postLocalize(t, r.Handler(), `{"rss":[42,5],"floor":0}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var resp struct {
		RP int `json:"rp"`
	}
	json.Unmarshal(w.Body.Bytes(), &resp)
	if resp.RP != 42 {
		t.Fatalf("rp = %d, want 42", resp.RP)
	}
	if s, b := shard.single.Load(), shard.batch.Load(); s != 1 || b != 0 {
		t.Fatalf("shard saw %d singles, %d batches — want passthrough", s, b)
	}
	st := r.Stats()
	if st.Coalesced != 1 || st.CoalescedBatches != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestCoalesceNoBatchFallback: a shard that 404s the batch endpoint (an
// older build) serves the first window as singles, latches passthrough, and
// later requests skip the window entirely.
func TestCoalesceNoBatchFallback(t *testing.T) {
	shard := fakeShard(t, "a") // no /v1/localize/batch route
	r := newTestRouter(t, oneShardMap(t, shard.URL), RouterOptions{
		CoalesceBatch: 4, CoalesceWait: 2 * time.Second,
	})
	h := r.Handler()

	recs := coalesceLocalize(t, h, []int{1, 2, 3, 4})
	for i, rec := range recs {
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, rec.Code, rec.Body)
		}
	}
	st := r.Stats()
	if st.CoalesceFallbacks != 1 {
		t.Fatalf("CoalesceFallbacks = %d, want 1 (stats %+v)", st.CoalesceFallbacks, st)
	}

	// The latch: later requests bypass the window (no added gather latency,
	// no coalesced counter movement).
	w := postLocalize(t, h, `{"rss":[5,5],"floor":0}`)
	if w.Code != http.StatusOK {
		t.Fatalf("post-latch request: status %d: %s", w.Code, w.Body)
	}
	if st2 := r.Stats(); st2.Coalesced != st.Coalesced {
		t.Fatalf("post-latch request entered a window: %+v", st2)
	}
}

// TestCoalesceShardDownMidWindow: the shard dying fails exactly the windows
// dispatched while it is down — with 502/ErrShardDown like the passthrough
// path — and coalescing resumes once it returns.
func TestCoalesceShardDownMidWindow(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	var single, batch atomic.Int64
	var sizes []int
	var mu sync.Mutex
	handler := batchShardHandler("a", &single, &batch, &sizes, &mu)
	srv := &http.Server{Handler: handler}
	go srv.Serve(ln)

	r := newTestRouter(t, oneShardMap(t, "http://"+addr), RouterOptions{
		CoalesceBatch: 4, CoalesceWait: 2 * time.Second,
		Retries: 1, Timeout: 2 * time.Second,
	})
	h := r.Handler()

	for i, rec := range coalesceLocalize(t, h, []int{1, 2, 3, 4}) {
		if rec.Code != http.StatusOK {
			t.Fatalf("warm window request %d: status %d: %s", i, rec.Code, rec.Body)
		}
	}

	srv.Close() // shard goes away with coalescing active

	for i, rec := range coalesceLocalize(t, h, []int{5, 6, 7, 8}) {
		if rec.Code != http.StatusBadGateway || !strings.Contains(rec.Body.String(), "shard down") {
			t.Fatalf("down-window request %d: status %d: %s — want 502 shard down", i, rec.Code, rec.Body)
		}
	}

	var ln2 net.Listener
	for i := 0; i < 100; i++ { // the freed port can take a moment to rebind
		if ln2, err = net.Listen("tcp", addr); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	srv2 := &http.Server{Handler: handler}
	go srv2.Serve(ln2)
	defer srv2.Close()

	for i, rec := range coalesceLocalize(t, h, []int{9, 10, 11, 12}) {
		if rec.Code != http.StatusOK {
			t.Fatalf("recovered window request %d: status %d: %s", i, rec.Code, rec.Body)
		}
	}
	if got := batch.Load(); got != 2 {
		t.Fatalf("shard saw %d batch calls across the restart, want 2 (sizes %v)", got, sizes)
	}
}

// TestCoalesceAbandonedWaiterKeepsItsRow: a client that gives up while parked
// in a coalesce window leaves its body in the window, so its handler must
// abandon the proxy buffer rather than recycle it. Were the buffer recycled,
// the next request on this goroutine would read its body into the same
// bytes, and the window would send that body twice instead of both rows.
func TestCoalesceAbandonedWaiterKeepsItsRow(t *testing.T) {
	var mu sync.Mutex
	var rows []float64
	shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var q struct {
			Queries []struct {
				RSS []float64 `json:"rss"`
			} `json:"queries"`
		}
		if err := json.NewDecoder(r.Body).Decode(&q); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		results := make([]map[string]any, len(q.Queries))
		mu.Lock()
		for i, row := range q.Queries {
			rows = append(rows, row.RSS[0])
			results[i] = map[string]any{"rp": int(row.RSS[0]), "floor": 0, "backend": "a", "version": 1}
		}
		mu.Unlock()
		writeJSON(w, map[string]any{"results": results})
	}))
	t.Cleanup(shard.Close)
	r := newTestRouter(t, oneShardMap(t, shard.URL), RouterOptions{
		CoalesceBatch: 2, CoalesceWait: time.Minute,
	})
	h := r.Handler()

	// The first request parks alone in the window until its client cancels.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		for r.Stats().Coalesced < 1 && ctx.Err() == nil {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	req := httptest.NewRequest(http.MethodPost, "/v1/localize", strings.NewReader(`{"rss":[21,5],"floor":0}`))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req.WithContext(ctx))
	if w.Code != statusClientClosedRequest {
		t.Fatalf("canceled waiter: status %d, want %d", w.Code, statusClientClosedRequest)
	}

	// The second fills the window, which flushes both parked bodies.
	if w := postLocalize(t, h, `{"rss":[34,5],"floor":0}`); w.Code != http.StatusOK {
		t.Fatalf("second request: status %d: %s", w.Code, w.Body)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(rows) != 2 || rows[0] != 21 || rows[1] != 34 {
		t.Fatalf("the shard received rows %v, want [21 34]", rows)
	}
}
