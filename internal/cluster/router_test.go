package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"calloc/internal/leakcheck"
)

// fakeShard is a minimal node-shaped HTTP server: it answers /healthz and
// echoes which shard served each /v1/* request, without any real models.
func fakeShard(t *testing.T, name string) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(fakeShardHandler(name))
	t.Cleanup(srv.Close)
	return srv
}

func fakeShardHandler(name string) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/v1/localize", func(w http.ResponseWriter, r *http.Request) {
		var q struct {
			Floor *int `json:"floor"`
		}
		json.NewDecoder(r.Body).Decode(&q)
		writeJSON(w, map[string]any{"served_by": name, "had_floor": q.Floor != nil})
	})
	mux.HandleFunc("/v1/feedback", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, map[string]any{"served_by": name})
	})
	mux.HandleFunc("/v1/models", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, []map[string]any{{"backend": "calloc", "shard": name}})
	})
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, map[string]any{"requests": 1})
	})
	return mux
}

func staticTwoShards(t *testing.T, urlA, urlB string) *StaticMap {
	t.Helper()
	m, err := NewStaticMap(
		map[string]string{"a": urlA, "b": urlB},
		map[ShardKey]string{{77, 0}: "a", {77, 1}: "b"},
	)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func newTestRouter(t *testing.T, m Assigner, opts RouterOptions) *Router {
	t.Helper()
	if opts.Building == 0 {
		opts.Building = 77
	}
	opts.ProbeInterval = -1 // probe explicitly in tests that care
	if opts.RetryDelay == 0 {
		opts.RetryDelay = time.Millisecond
	}
	r, err := NewRouter(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

func postLocalize(t *testing.T, h http.Handler, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/localize", strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func TestRouterProxiesToOwner(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	a, b := fakeShard(t, "a"), fakeShard(t, "b")
	r := newTestRouter(t, staticTwoShards(t, a.URL, b.URL), RouterOptions{})
	h := r.Handler()

	for floor, want := range map[int]string{0: "a", 1: "b"} {
		w := postLocalize(t, h, fmt.Sprintf(`{"rss":[1,2],"floor":%d}`, floor))
		if w.Code != http.StatusOK {
			t.Fatalf("floor %d: status %d: %s", floor, w.Code, w.Body)
		}
		var resp struct {
			ServedBy string `json:"served_by"`
			HadFloor bool   `json:"had_floor"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.ServedBy != want {
			t.Fatalf("floor %d served by %q, want %q", floor, resp.ServedBy, want)
		}
		// The original body must be forwarded: the shard sees the explicit
		// floor and keeps its direct-lookup path.
		if !resp.HadFloor {
			t.Fatalf("floor %d: shard did not receive the explicit floor", floor)
		}
	}
	if st := r.Stats(); st.Proxied != 2 || st.ShardDown != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// Satellite: owning shard down → 502 carrying ErrShardDown, counted in stats.
func TestRouterShardDown(t *testing.T) {
	a := fakeShard(t, "a")
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // nothing listens here any more

	r := newTestRouter(t, staticTwoShards(t, a.URL, deadURL), RouterOptions{Retries: 2})
	w := postLocalize(t, r.Handler(), `{"rss":[1,2],"floor":1}`)
	if w.Code != http.StatusBadGateway {
		t.Fatalf("status %d, want 502: %s", w.Code, w.Body)
	}
	if !strings.Contains(w.Body.String(), ErrShardDown.Error()) {
		t.Fatalf("body %q does not carry ErrShardDown", w.Body)
	}
	st := r.Stats()
	if st.ShardDown != 1 {
		t.Fatalf("ShardDown = %d, want 1", st.ShardDown)
	}
	if st.Retries != 2 {
		t.Fatalf("Retries = %d, want 2 (bounded retry budget spent)", st.Retries)
	}
	// The healthy shard keeps serving.
	if w := postLocalize(t, r.Handler(), `{"rss":[1,2],"floor":0}`); w.Code != http.StatusOK {
		t.Fatalf("healthy shard status %d", w.Code)
	}
}

// A negative retry budget disables retries: a request to a shard that
// drops every connection makes one attempt and counts no retry, while the
// zero value keeps the default single retry.
func TestRouterNegativeRetriesDisableRetry(t *testing.T) {
	for _, tc := range []struct{ retries, attempts, counted int }{{-1, 1, 0}, {0, 2, 1}} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		var accepts atomic.Int64
		go func() {
			for {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				accepts.Add(1)
				c.Close()
			}
		}()
		a := fakeShard(t, "a")
		r := newTestRouter(t, staticTwoShards(t, a.URL, "http://"+ln.Addr().String()), RouterOptions{Retries: tc.retries})
		w := postLocalize(t, r.Handler(), `{"rss":[1,2],"floor":1}`)
		ln.Close()
		if w.Code != http.StatusBadGateway {
			t.Fatalf("Retries %d: status %d, want 502: %s", tc.retries, w.Code, w.Body)
		}
		if got := accepts.Load(); got != int64(tc.attempts) {
			t.Errorf("Retries %d: %d attempts, want %d", tc.retries, got, tc.attempts)
		}
		if got := r.Stats().Retries; got != int64(tc.counted) {
			t.Errorf("Retries %d: %d retries counted, want %d", tc.retries, got, tc.counted)
		}
	}
}

// Satellite: a key the shard map does not cover fails 400 immediately — it
// must not hang in the proxy path or burn the retry budget.
func TestRouterNoOwnerFails400Fast(t *testing.T) {
	a, b := fakeShard(t, "a"), fakeShard(t, "b")
	r := newTestRouter(t, staticTwoShards(t, a.URL, b.URL), RouterOptions{})
	start := time.Now()
	w := postLocalize(t, r.Handler(), `{"rss":[1,2],"floor":9}`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", w.Code, w.Body)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("no-owner rejection took %s", d)
	}
	if st := r.Stats(); st.NoOwner != 1 || st.Proxied != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// A floor-less request with no resolver routes via the building's single
// known floor; with two known floors it fails 400 rather than guessing.
func TestRouterFloorlessFallback(t *testing.T) {
	a, b := fakeShard(t, "a"), fakeShard(t, "b")
	single, err := NewStaticMap(map[string]string{"a": a.URL}, map[ShardKey]string{{77, 0}: "a"})
	if err != nil {
		t.Fatal(err)
	}
	r := newTestRouter(t, single, RouterOptions{})
	if w := postLocalize(t, r.Handler(), `{"rss":[1,2]}`); w.Code != http.StatusOK {
		t.Fatalf("single-floor fallback: status %d: %s", w.Code, w.Body)
	}

	r2 := newTestRouter(t, staticTwoShards(t, a.URL, b.URL), RouterOptions{})
	if w := postLocalize(t, r2.Handler(), `{"rss":[1,2]}`); w.Code != http.StatusBadRequest {
		t.Fatalf("ambiguous floor-less: status %d, want 400", w.Code)
	}
}

func TestRouterResolveHook(t *testing.T) {
	a, b := fakeShard(t, "a"), fakeShard(t, "b")
	r := newTestRouter(t, staticTwoShards(t, a.URL, b.URL), RouterOptions{
		Resolve: func(rss []float64) (int, error) { return 1, nil },
	})
	w := postLocalize(t, r.Handler(), `{"rss":[1,2]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var resp struct {
		ServedBy string `json:"served_by"`
	}
	json.Unmarshal(w.Body.Bytes(), &resp)
	if resp.ServedBy != "b" {
		t.Fatalf("resolver said floor 1 but %q served", resp.ServedBy)
	}
	if st := r.Stats(); st.Resolved != 1 {
		t.Fatalf("Resolved = %d", st.Resolved)
	}
}

// TestRouterDecodeVerdicts: the router reads bodies through the decoder the
// nodes use, so a numeral that is not JSON gets its 400 here and never
// reaches a shard; a body outside the fast grammar is routed like its plain
// spelling and counted; swap- and feedback-shaped bodies stay inside it.
func TestRouterDecodeVerdicts(t *testing.T) {
	a, b := fakeShard(t, "a"), fakeShard(t, "b")
	r := newTestRouter(t, staticTwoShards(t, a.URL, b.URL), RouterOptions{})
	h := r.Handler()

	for _, num := range []string{"01", ".5", "1.", "-.5", "1.e3", "-01.5", "1e999"} {
		if w := postLocalize(t, h, `{"rss":[-1,`+num+`],"floor":1}`); w.Code != http.StatusBadRequest {
			t.Errorf("rss value %s: status %d (%s), want 400", num, w.Code, w.Body)
		}
	}
	if st := r.Stats(); st.Proxied != 0 || st.FastPunts != 7 {
		t.Fatalf("after 7 malformed bodies: proxied %d, fast_punts %d", st.Proxied, st.FastPunts)
	}

	servedBy := func(path, body string) string {
		t.Helper()
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		var resp struct {
			ServedBy string `json:"served_by"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &resp); w.Code != http.StatusOK || err != nil {
			t.Fatalf("%s %s: status %d (%s): %v", path, body, w.Code, w.Body, err)
		}
		return resp.ServedBy
	}
	for _, tc := range []struct {
		path, body, want string
		punts            int64
	}{
		{"/v1/localize", `{"rss":[-0,1E+2],"floor":1,"backend":"knn"}`, "b", 0},
		{"/v1/localize", `{"rss":[-1],"floor":1,"backend":"k\u006en"}`, "b", 1},
		{"/v1/localize", `{"rss":[-1],"floor":0,"meta":{"trace":[1,2]}}`, "a", 1},
		{"/v1/feedback", `{"rss":[-60.5,-71],"rp":12,"floor":1}`, "b", 0},
		{"/v1/feedback", `{"floor":0,"stage":true,"weights":"QUJD+/8=","backend":"calloc"}`, "a", 0},
	} {
		before := r.Stats().FastPunts
		if got := servedBy(tc.path, tc.body); got != tc.want {
			t.Errorf("%s %s served by %q, want %q", tc.path, tc.body, got, tc.want)
		}
		if got := r.Stats().FastPunts - before; got != tc.punts {
			t.Errorf("%s %s: fast_punts moved by %d, want %d", tc.path, tc.body, got, tc.punts)
		}
	}
}

func TestRouterByFloorRequiresFloor(t *testing.T) {
	a, b := fakeShard(t, "a"), fakeShard(t, "b")
	r := newTestRouter(t, staticTwoShards(t, a.URL, b.URL), RouterOptions{})
	req := httptest.NewRequest(http.MethodPost, "/v1/feedback",
		strings.NewReader(`{"rss":[1,2],"x":0,"y":0}`))
	w := httptest.NewRecorder()
	r.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("floor-less feedback: status %d, want 400", w.Code)
	}
}

func TestRouterFanoutMergesAndReportsFailures(t *testing.T) {
	a := fakeShard(t, "a")
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	r := newTestRouter(t, staticTwoShards(t, a.URL, deadURL), RouterOptions{})
	req := httptest.NewRequest(http.MethodGet, "/v1/models", nil)
	w := httptest.NewRecorder()
	r.Handler().ServeHTTP(w, req)
	var out struct {
		Entries []map[string]any  `json:"entries"`
		Errors  map[string]string `json:"errors"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Entries) != 1 || out.Entries[0]["node"] != "a" {
		t.Fatalf("entries = %v", out.Entries)
	}
	if _, ok := out.Errors["b"]; !ok {
		t.Fatalf("dead shard missing from errors: %v", out.Errors)
	}
}

func TestProberHealthTransitions(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	var healthy atomic.Bool
	healthy.Store(true)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" && healthy.Load() {
			fmt.Fprintln(w, "ok")
			return
		}
		http.Error(w, "draining", http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	var logMu sync.Mutex
	var logs []string
	p := NewProber(map[string]string{"a": srv.URL}, time.Hour, nil, func(format string, args ...any) {
		logMu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		logMu.Unlock()
	})
	defer p.Close()

	p.ProbeOnce(t.Context())
	if st := p.Status()["a"]; !st.Healthy || st.LastOK.IsZero() {
		t.Fatalf("healthy probe: %+v", st)
	}

	healthy.Store(false)
	p.ProbeOnce(t.Context())
	st := p.Status()["a"]
	if st.Healthy {
		t.Fatalf("unhealthy probe still healthy: %+v", st)
	}
	if st.LastOK.IsZero() {
		t.Fatal("LastOK forgotten across an unhealthy probe")
	}

	healthy.Store(true)
	p.ProbeOnce(t.Context())
	if st := p.Status()["a"]; !st.Healthy {
		t.Fatalf("recovered probe: %+v", st)
	}

	logMu.Lock()
	defer logMu.Unlock()
	joined := strings.Join(logs, "\n")
	if !strings.Contains(joined, "unhealthy") || !strings.Contains(joined, "healthy again") {
		t.Fatalf("missing health-transition logs:\n%s", joined)
	}
}

// TestProberCloseWaitsForLoop holds one of the probe loop's /healthz calls
// in flight and closes the prober: Close must not return before the loop
// has exited.
func TestProberCloseWaitsForLoop(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	var calls atomic.Int64
	entered, release := make(chan struct{}), make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if calls.Add(1) == 2 { // the first probe is Start's own; the second is the loop's
			close(entered)
			<-release
		}
		fmt.Fprintln(w, "ok")
	}))
	defer srv.Close()
	p := NewProber(map[string]string{"a": srv.URL}, time.Millisecond, nil, nil)
	p.Start()
	<-entered

	closed := make(chan bool)
	go func() {
		p.Close()
		select {
		case <-p.done:
			closed <- true
		default:
			closed <- false
		}
	}()
	var exited bool
	select {
	case exited = <-closed:
		close(release)
	case <-time.After(100 * time.Millisecond):
		close(release) // Close is waiting for the probe, as it should
		exited = <-closed
	}
	if !exited {
		t.Fatal("Prober.Close returned while its probe loop was still running")
	}
}

// TestRouterProxyCancelsUpstream cancels a client's request while the
// router forwards it: the shard's handler must see its request context end.
func TestRouterProxyCancelsUpstream(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	entered, canceled := make(chan struct{}), make(chan bool, 1)
	shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) // the server watches for a hang-up only once the body is read
		close(entered)
		select {
		case <-r.Context().Done():
			canceled <- true
		case <-time.After(5 * time.Second):
			canceled <- false
		}
	}))
	defer shard.Close()
	r := newTestRouter(t, staticTwoShards(t, shard.URL, shard.URL), RouterOptions{Retries: -1})

	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequestWithContext(ctx, http.MethodPost, "/v1/localize", strings.NewReader(`{"rss":[1,2],"floor":0}`))
	served := make(chan struct{})
	go func() {
		defer close(served)
		r.Handler().ServeHTTP(httptest.NewRecorder(), req)
	}()
	<-entered
	cancel()
	if !<-canceled {
		t.Error("the shard's request context outlived the client's cancel by 5s")
	}
	<-served
}

// Satellite: hammer the router with routed traffic under -race while one
// shard restarts (listener closed, then rebound on the same port). Requests
// may fail 502 during the outage but the router must stay data-race-free and
// recover once the shard is back.
func TestRouterHammerDuringShardRestart(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	a := fakeShard(t, "a")

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	srvB := &http.Server{Handler: fakeShardHandler("b")}
	go srvB.Serve(ln)

	r := newTestRouter(t, staticTwoShards(t, a.URL, "http://"+addr), RouterOptions{
		Retries: 1, Timeout: 2 * time.Second,
	})
	h := r.Handler()

	var wg sync.WaitGroup
	var ok, down atomic.Int64
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				body := fmt.Sprintf(`{"rss":[1,2],"floor":%d}`, (g+i)%2)
				req := httptest.NewRequest(http.MethodPost, "/v1/localize", bytes.NewReader([]byte(body)))
				w := httptest.NewRecorder()
				h.ServeHTTP(w, req)
				switch w.Code {
				case http.StatusOK:
					ok.Add(1)
				case http.StatusBadGateway:
					down.Add(1)
				default:
					t.Errorf("unexpected status %d: %s", w.Code, w.Body)
					return
				}
			}
		}(g)
	}

	time.Sleep(50 * time.Millisecond)
	srvB.Close() // shard b goes away mid-traffic

	time.Sleep(100 * time.Millisecond)
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
	srvB2 := &http.Server{Handler: fakeShardHandler("b")}
	go srvB2.Serve(ln2)
	defer srvB2.Close()

	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()

	if ok.Load() == 0 {
		t.Fatal("no request succeeded")
	}
	// After the restart the shard must serve again through the same router.
	w := postLocalize(t, h, `{"rss":[1,2],"floor":1}`)
	if w.Code != http.StatusOK {
		t.Fatalf("shard b did not recover: status %d: %s", w.Code, w.Body)
	}
	t.Logf("hammer: %d ok, %d 502 during restart, router stats %+v", ok.Load(), down.Load(), r.Stats())
}
