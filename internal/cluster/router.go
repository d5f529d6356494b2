package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"calloc/internal/wire"
)

// ErrShardDown is returned (and surfaced as 502) when the owning shard of a
// request could not be reached after the bounded retries.
var ErrShardDown = errors.New("cluster: shard down")

// maxBodyBytes bounds proxied request bodies; fingerprints are a few KB,
// staged weight pushes a few MB.
const maxBodyBytes = 64 << 20

// RouterOptions configures a Router.
type RouterOptions struct {
	// Building is the building requests address when they carry none.
	Building int
	// Resolve maps a fingerprint to its global floor for /v1/localize bodies
	// that carry no explicit floor — typically a floor classifier fitted
	// over every floor's offline database (node.FitFloorClassifier). Without
	// it, floor-less requests fall back to the shard map's single known
	// floor for the building, or fail 400.
	Resolve func(rss []float64) (int, error)
	// Retries is how many times a failed proxy attempt is retried against
	// the owning shard before the request fails with ErrShardDown (transport
	// errors only — HTTP error statuses are the shard's answer and pass
	// through). 0 selects the default 1, a negative value disables retries,
	// and the budget is capped at 5.
	Retries int
	// RetryDelay is the pause between attempts (default 25ms).
	RetryDelay time.Duration
	// Timeout bounds each proxy attempt (default 30s — staged weight pushes
	// deserialise a full model on the shard).
	Timeout time.Duration
	// ProbeInterval is the membership/health probe cadence (default 2s;
	// negative disables probing).
	ProbeInterval time.Duration

	// CoalesceBatch enables cross-request coalescing on the localize hop:
	// concurrent single-query proxies bound for the same shard gather into
	// one upstream /v1/localize/batch call of at most this many rows. The
	// knob mirrors serve.Options.MaxBatch one level up — the same
	// amortisation applied to the proxy hop instead of the model call.
	// Values <= 1 disable coalescing (the default): a mostly-idle router
	// would otherwise tax every request CoalesceWait of gather latency for
	// nothing.
	CoalesceBatch int
	// CoalesceWait is how long a non-full window gathers before flushing
	// (default 2ms when coalescing is on). The shard's engine never makes a
	// lone request wait; it only paces a lane with concurrent callers.
	CoalesceWait time.Duration

	Logf func(format string, args ...any)
}

func (o *RouterOptions) setDefaults() {
	switch {
	case o.Retries < 0:
		o.Retries = 0
	case o.Retries == 0:
		o.Retries = 1
	case o.Retries > 5:
		o.Retries = 5
	}
	if o.RetryDelay <= 0 {
		o.RetryDelay = 25 * time.Millisecond
	}
	if o.Timeout <= 0 {
		o.Timeout = 30 * time.Second
	}
	if o.CoalesceBatch > 256 {
		o.CoalesceBatch = 256
	}
	if o.CoalesceBatch > 1 && o.CoalesceWait <= 0 {
		o.CoalesceWait = 2 * time.Millisecond
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
}

// shardCounters is the per-shard slice of the router's load/failure stats.
type shardCounters struct {
	proxied atomic.Int64
	retries atomic.Int64
	down    atomic.Int64
}

// Router is the fleet front door: it owns no models, only the shard map, a
// health prober, and one keep-alive HTTP client per fleet. Point requests
// (/v1/localize, /v1/feedback, /v1/swap, /v1/ab/{promote,abort}) proxy to
// the shard owning the request's {building, floor}; fleet views
// (/v1/models, /v1/stats, /v1/ab, /v1/trainer) fan out to every member and
// merge the responses.
type Router struct {
	m      Assigner
	opts   RouterOptions
	nodes  map[string]string // name → base URL (from the assigner)
	client *http.Client
	prober *Prober
	start  time.Time

	shardMu sync.Mutex
	shards  map[string]*shardCounters

	coMu sync.Mutex
	co   map[string]*coalescer // shard name → localize coalescer

	proxied           atomic.Int64
	fanouts           atomic.Int64
	retries           atomic.Int64
	shardDown         atomic.Int64
	noOwner           atomic.Int64
	resolved          atomic.Int64 // floor-less localizes resolved by opts.Resolve
	coalesced         atomic.Int64 // localizes that entered a coalesce window
	coalescedBatches  atomic.Int64 // upstream /v1/localize/batch calls
	coalesceFallbacks atomic.Int64 // windows served as singles (no-batch shard)
	fastPunts         atomic.Int64 // bodies the fast decoder handed to encoding/json
}

// NewRouter builds a router over the shard map. Call Start to begin health
// probing and Close to stop it.
func NewRouter(m Assigner, opts RouterOptions) (*Router, error) {
	if m == nil {
		return nil, errors.New("cluster: nil shard map")
	}
	opts.setDefaults()
	nodes := m.Nodes()
	if len(nodes) == 0 {
		return nil, errors.New("cluster: shard map has no nodes")
	}
	r := &Router{
		m:     m,
		opts:  opts,
		nodes: nodes,
		client: &http.Client{
			Timeout: opts.Timeout,
			Transport: &http.Transport{
				// One pooled keep-alive connection set per shard host: the
				// proxy hop reuses connections instead of paying a dial per
				// request.
				MaxIdleConns:        64,
				MaxIdleConnsPerHost: 16,
				IdleConnTimeout:     90 * time.Second,
			},
		},
		start:  time.Now(),
		shards: make(map[string]*shardCounters, len(nodes)),
		co:     make(map[string]*coalescer, len(nodes)),
	}
	for name := range nodes {
		r.shards[name] = &shardCounters{}
	}
	if opts.ProbeInterval >= 0 {
		r.prober = NewProber(nodes, opts.ProbeInterval, nil, opts.Logf)
	}
	return r, nil
}

// Start begins background health probing (when enabled).
func (r *Router) Start() {
	if r.prober != nil {
		r.prober.Start()
	}
}

// Close stops health probing and tears down pooled connections.
func (r *Router) Close() {
	if r.prober != nil {
		r.prober.Close()
	}
	r.client.CloseIdleConnections()
}

func (r *Router) counters(name string) *shardCounters {
	r.shardMu.Lock()
	defer r.shardMu.Unlock()
	c, ok := r.shards[name]
	if !ok {
		c = &shardCounters{}
		r.shards[name] = c
	}
	return c
}

// Handler builds the fleet-facing HTTP mux.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/localize", r.handleLocalize)
	mux.HandleFunc("POST /v1/feedback", r.handleByFloor("/v1/feedback"))
	mux.HandleFunc("POST /v1/swap", r.handleByFloor("/v1/swap"))
	mux.HandleFunc("POST /v1/ab/promote", r.handleByFloor("/v1/ab/promote"))
	mux.HandleFunc("POST /v1/ab/abort", r.handleByFloor("/v1/ab/abort"))
	mux.HandleFunc("GET /v1/models", r.handleFanoutList("/v1/models"))
	mux.HandleFunc("GET /v1/ab", r.handleFanoutList("/v1/ab"))
	mux.HandleFunc("GET /v1/stats", r.handleStats)
	mux.HandleFunc("GET /v1/trainer", r.handleFanoutObject("/v1/trainer"))
	mux.HandleFunc("GET /v1/shards", r.handleShards)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// owner resolves the shard owning {building, floor}, counting misses.
func (r *Router) owner(w http.ResponseWriter, building, floor int) (string, bool) {
	name, ok := r.m.Owner(ShardKey{Building: building, Floor: floor})
	if !ok {
		r.noOwner.Add(1)
		http.Error(w, fmt.Sprintf("no shard owns building %d floor %d", building, floor), http.StatusBadRequest)
		return "", false
	}
	return name, true
}

// proxyBuf carries one proxied request's body buffer and decode target.
type proxyBuf struct {
	body []byte
	q    wire.Query
}

var proxyPool = sync.Pool{
	New: func() any { return &proxyBuf{body: make([]byte, 0, 4096)} },
}

// putProxyBuf recycles a buffer, dropping outsized bodies (a swap can carry
// tens of MB of base64 weights — pinning that in the pool would leak the
// high-water mark forever).
func putProxyBuf(b *proxyBuf) {
	if cap(b.body) > 1<<20 {
		b.body = nil
	}
	proxyPool.Put(b)
}

// decode reads the shard-picking fields off a proxied body — a localize
// query, or a feedback/swap/override body, which carry the same "floor" and
// "building" among scalar fields the decoder skips — counting the bodies that
// needed encoding/json.
func (r *Router) decode(body []byte, q *wire.Query) error {
	punted, err := wire.DecodeQuery(body, q)
	if punted {
		r.fastPunts.Add(1)
	}
	return err
}

// handleLocalize proxies one localization to the owning shard. The original
// body is forwarded untouched: a floor-carrying request stays a direct
// lookup on the shard, a floor-less one re-routes through the shard's own
// floor classifier (or its single floor) — so per-shard routing, shadow A/B
// sampling, and misroute accounting behave exactly as in a single-process
// deployment. The router only needs the floor to pick the shard: explicit
// floor if given, the Resolve hook next, the building's only known floor
// last.
//
// With CoalesceBatch > 1 the request joins the shard's coalesce window
// instead of proxying alone; see coalescer.
func (r *Router) handleLocalize(w http.ResponseWriter, req *http.Request) {
	//calloc:handoff on a coalesce ctx error the batch owns b.body and this handler abandons b to the GC
	b := proxyPool.Get().(*proxyBuf)
	body, _, ok := wire.ReadBody(w, req, b.body, maxBodyBytes)
	b.body = body
	if !ok {
		putProxyBuf(b)
		return
	}
	q := &b.q
	if err := r.decode(body, q); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		putProxyBuf(b)
		return
	}
	building := r.opts.Building
	if q.Building.Set {
		building = q.Building.V
	}
	var floor int
	switch {
	case q.Floor.Set:
		floor = q.Floor.V
	case r.opts.Resolve != nil:
		f, err := r.opts.Resolve(q.RSS)
		if err != nil {
			http.Error(w, fmt.Sprintf("floor resolution failed: %v", err), http.StatusBadRequest)
			putProxyBuf(b)
			return
		}
		floor = f
		r.resolved.Add(1)
	default:
		floors := r.m.Floors(building)
		if len(floors) != 1 {
			http.Error(w, fmt.Sprintf(
				"request has no floor and the router has no floor resolver (building %d has %d known floors)",
				building, len(floors)), http.StatusBadRequest)
			putProxyBuf(b)
			return
		}
		floor = floors[0]
	}
	name, ok := r.owner(w, building, floor)
	if !ok {
		putProxyBuf(b)
		return
	}
	if r.opts.CoalesceBatch > 1 {
		if c := r.coalescerFor(name); !c.noBatch.Load() {
			r.coalesced.Add(1)
			rep, err := c.submit(req.Context(), body)
			if err != nil {
				// The coalescer still holds b.body for its in-flight window:
				// abandon the buffer to the GC rather than recycle it.
				status := statusClientClosedRequest
				if errors.Is(err, context.DeadlineExceeded) {
					status = http.StatusGatewayTimeout
				}
				http.Error(w, err.Error(), status)
				return
			}
			if rep.ct != "" {
				w.Header().Set("Content-Type", rep.ct)
			}
			w.WriteHeader(rep.status)
			w.Write(rep.body)
			putProxyBuf(b)
			return
		}
	}
	r.proxy(w, req.Context(), name, "/v1/localize", body)
	putProxyBuf(b)
}

// statusClientClosedRequest mirrors the node's 499 for clients that
// disconnect while parked in a coalesce window.
const statusClientClosedRequest = 499

// handleByFloor proxies one floor-addressed mutation (feedback, swap, A/B
// override) to the owning shard.
func (r *Router) handleByFloor(path string) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		b := proxyPool.Get().(*proxyBuf)
		defer putProxyBuf(b)
		body, _, ok := wire.ReadBody(w, req, b.body, maxBodyBytes)
		b.body = body
		if !ok {
			return
		}
		q := &b.q
		if err := r.decode(body, q); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if !q.Floor.Set {
			http.Error(w, path+" through the router requires an explicit floor", http.StatusBadRequest)
			return
		}
		building := r.opts.Building
		if q.Building.Set {
			building = q.Building.V
		}
		name, ok := r.owner(w, building, q.Floor.V)
		if !ok {
			return
		}
		r.proxy(w, req.Context(), name, path, body)
	}
}

// proxy forwards one request to the named shard with bounded retries on
// transport errors, streaming the shard's response (status and body) back.
func (r *Router) proxy(w http.ResponseWriter, ctx context.Context, name, path string, body []byte) {
	resp, err := r.do(ctx, name, http.MethodPost, path, body)
	if err != nil {
		r.shardDown.Add(1)
		r.counters(name).down.Add(1)
		r.opts.Logf("cluster: shard %q down for %s: %v", name, path, err)
		http.Error(w, fmt.Sprintf("%v: shard %q unreachable: %v", ErrShardDown, name, err), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	r.proxied.Add(1)
	r.counters(name).proxied.Add(1)
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// do performs one shard request with retries. HTTP error statuses are the
// shard's answer and are returned, not retried; only transport failures
// (dial refused, reset, timeout) count against the retry budget.
func (r *Router) do(ctx context.Context, name, method, path string, body []byte) (*http.Response, error) {
	base, ok := r.nodes[name]
	if !ok {
		return nil, fmt.Errorf("%w: unknown node %q", ErrShardDown, name)
	}
	var lastErr error
	for attempt := 0; attempt <= r.opts.Retries; attempt++ {
		if attempt > 0 {
			r.retries.Add(1)
			r.counters(name).retries.Add(1)
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(r.opts.RetryDelay):
			}
		}
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, base+path, rd)
		if err != nil {
			return nil, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := r.client.Do(req)
		if err == nil {
			return resp, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("%w: %v", ErrShardDown, lastErr)
}

// fanout queries every member node concurrently and returns the decoded
// bodies of the successful answers plus the per-node errors.
func (r *Router) fanout(ctx context.Context, path string) (map[string]json.RawMessage, map[string]string) {
	r.fanouts.Add(1)
	type reply struct {
		name string
		body json.RawMessage
		err  error
	}
	names := make([]string, 0, len(r.nodes))
	for name := range r.nodes {
		names = append(names, name)
	}
	ch := make(chan reply, len(names))
	for _, name := range names {
		go func(name string) {
			resp, err := r.do(ctx, name, http.MethodGet, path, nil)
			if err != nil {
				ch <- reply{name: name, err: err}
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
			if err == nil && resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
			}
			if err != nil {
				ch <- reply{name: name, err: err}
				return
			}
			ch <- reply{name: name, body: body}
		}(name)
	}
	bodies := make(map[string]json.RawMessage, len(names))
	errs := make(map[string]string)
	for range names {
		rep := <-ch
		if rep.err != nil {
			errs[rep.name] = rep.err.Error()
			r.shardDown.Add(1)
			r.counters(rep.name).down.Add(1)
			continue
		}
		bodies[rep.name] = rep.body
	}
	return bodies, errs
}

// handleFanoutList merges per-shard JSON lists (/v1/models, /v1/ab) into one
// fleet-wide list: every element is annotated with the shard that reported
// it, ordered by node name. Unreachable shards are reported alongside so a
// partial view is never mistaken for the whole fleet.
func (r *Router) handleFanoutList(path string) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		bodies, errs := r.fanout(req.Context(), path)
		names := make([]string, 0, len(bodies))
		for name := range bodies {
			names = append(names, name)
		}
		sort.Strings(names)
		merged := make([]map[string]any, 0, 2*len(names))
		for _, name := range names {
			var entries []map[string]any
			if err := json.Unmarshal(bodies[name], &entries); err != nil {
				errs[name] = fmt.Sprintf("bad %s payload: %v", path, err)
				continue
			}
			for _, e := range entries {
				e["node"] = name
				merged = append(merged, e)
			}
		}
		out := map[string]any{"entries": merged}
		if len(errs) > 0 {
			out["errors"] = errs
		}
		writeJSON(w, out)
	}
}

// handleFanoutObject merges per-shard JSON objects (/v1/trainer) keyed by
// node name.
func (r *Router) handleFanoutObject(path string) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		bodies, errs := r.fanout(req.Context(), path)
		out := make(map[string]any, len(bodies)+1)
		for name, body := range bodies {
			out[name] = json.RawMessage(body)
		}
		if len(errs) > 0 {
			out["errors"] = errs
		}
		writeJSON(w, out)
	}
}

// ShardView is one member's slice of the fleet stats view.
type ShardView struct {
	URL     string          `json:"url"`
	Health  *NodeHealth     `json:"health,omitempty"`
	Proxied int64           `json:"proxied"`
	Retries int64           `json:"retries"`
	Down    int64           `json:"down"`
	Error   string          `json:"error,omitempty"`
	Stats   json.RawMessage `json:"stats,omitempty"`
}

// RouterStats is the router's own counter snapshot.
type RouterStats struct {
	Uptime    time.Duration `json:"uptime_ns"`
	Proxied   int64         `json:"proxied"`
	Fanouts   int64         `json:"fanouts"`
	Retries   int64         `json:"retries"`
	ShardDown int64         `json:"shard_down"`
	NoOwner   int64         `json:"no_owner"`
	Resolved  int64         `json:"resolved_floors"`
	// Coalesced counts localizes that entered a coalesce window;
	// CoalescedBatches the upstream batch calls those windows produced
	// (Coalesced/CoalescedBatches is the realised hop amortisation);
	// CoalesceFallbacks the windows served as singles against a shard with
	// no batch endpoint.
	Coalesced         int64 `json:"coalesced"`
	CoalescedBatches  int64 `json:"coalesced_batches"`
	CoalesceFallbacks int64 `json:"coalesce_fallbacks"`
	// FastPunts counts proxied bodies the fast decoder handed to
	// encoding/json (see node.WireStats.FastPunts).
	FastPunts int64 `json:"fast_punts"`
}

// Stats snapshots the router's counters.
func (r *Router) Stats() RouterStats {
	return RouterStats{
		Uptime:            time.Since(r.start),
		Proxied:           r.proxied.Load(),
		Fanouts:           r.fanouts.Load(),
		Retries:           r.retries.Load(),
		ShardDown:         r.shardDown.Load(),
		NoOwner:           r.noOwner.Load(),
		Resolved:          r.resolved.Load(),
		Coalesced:         r.coalesced.Load(),
		CoalescedBatches:  r.coalescedBatches.Load(),
		CoalesceFallbacks: r.coalesceFallbacks.Load(),
		FastPunts:         r.fastPunts.Load(),
	}
}

// handleStats reports the fleet-wide stats view: the router's own counters
// plus every shard's /v1/stats (with its health and per-shard proxy load).
func (r *Router) handleStats(w http.ResponseWriter, req *http.Request) {
	bodies, errs := r.fanout(req.Context(), "/v1/stats")
	var health map[string]NodeHealth
	if r.prober != nil {
		health = r.prober.Status()
	}
	shards := make(map[string]ShardView, len(r.nodes))
	for name, url := range r.nodes {
		c := r.counters(name)
		v := ShardView{
			URL:     url,
			Proxied: c.proxied.Load(),
			Retries: c.retries.Load(),
			Down:    c.down.Load(),
		}
		if h, ok := health[name]; ok {
			h := h
			v.Health = &h
		}
		if body, ok := bodies[name]; ok {
			v.Stats = body
		}
		if msg, ok := errs[name]; ok {
			v.Error = msg
		}
		shards[name] = v
	}
	writeJSON(w, map[string]any{"router": r.Stats(), "shards": shards})
}

// handleShards reports the membership view: node table, health, and (for
// static maps) the assignment table.
func (r *Router) handleShards(w http.ResponseWriter, _ *http.Request) {
	out := map[string]any{"nodes": r.nodes}
	if r.prober != nil {
		out["health"] = r.prober.Status()
	}
	if sm, ok := r.m.(*StaticMap); ok {
		assign := make(map[string]string, len(sm.assign))
		for k, name := range sm.assign {
			assign[k.String()] = name
		}
		out["assign"] = assign
	}
	writeJSON(w, out)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
