package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// coalescer aggregates concurrent single-query /v1/localize proxies bound for
// ONE shard into one upstream /v1/localize/batch call. At high fan-in the
// router otherwise pays a full proxy round trip — and the shard a full lane
// wakeup — per query; coalescing amortises both across everything that
// arrives within a short gather window, as the shard's own engine amortises
// model calls across a micro-batch.
//
// The window closes when it holds CoalesceBatch requests or when CoalesceWait
// elapses, whichever is first. A window that closes with a single request is
// proxied as a plain /v1/localize — coalescing must never make an idle
// router's requests worse than the passthrough hop. A shard that answers the
// batch endpoint 404/405 (an older node build) flips noBatch and every later
// request passes straight through.
type coalescer struct {
	r    *Router
	name string // owning shard

	mu     sync.Mutex
	window []*coalesceWaiter
	gen    uint64      // bumped at every flush; lets a stale timer recognise itself
	timer  *time.Timer // armed while the window is non-empty

	// noBatch latches when the shard rejects /v1/localize/batch with
	// 404/405: the fleet is mid-upgrade and this member predates the batch
	// endpoint. Requests then bypass the window entirely.
	noBatch atomic.Bool
}

// coalesceWaiter is one enqueued request: its original single-query body and
// the channel its reply is delivered on. The channel has capacity 1 so a
// flush never blocks on a waiter whose client has gone away.
type coalesceWaiter struct {
	body []byte
	done chan coalesceReply
}

// coalesceReply is what a waiter writes back to its client: the row's status,
// body, and content type (JSON for results, text for error rows — matching
// what the shard would have sent on the single-query path).
type coalesceReply struct {
	status int
	body   []byte
	ct     string
}

func deliver(w *coalesceWaiter, rep coalesceReply) {
	select {
	case w.done <- rep:
	default: // waiter already abandoned (cap-1 channel can only be full if so)
	}
}

// coalescerFor returns (creating on first use) the coalescer of a shard.
func (r *Router) coalescerFor(name string) *coalescer {
	r.coMu.Lock()
	defer r.coMu.Unlock()
	c, ok := r.co[name]
	if !ok {
		c = &coalescer{r: r, name: name}
		r.co[name] = c
	}
	return c
}

// submit enqueues one request body into the shard's window and blocks until
// its reply arrives or ctx ends. On a ctx error the coalescer still owns
// body — the caller must abandon the buffer to the GC, not recycle it.
func (c *coalescer) submit(ctx context.Context, body []byte) (coalesceReply, error) {
	w := &coalesceWaiter{body: body, done: make(chan coalesceReply, 1)}
	c.mu.Lock()
	c.window = append(c.window, w)
	if len(c.window) == 1 {
		gen := c.gen
		c.timer = time.AfterFunc(c.r.opts.CoalesceWait, func() { c.flushAfterWait(gen) })
	}
	var batch []*coalesceWaiter
	if len(c.window) >= c.r.opts.CoalesceBatch {
		batch = c.takeWindow()
	}
	c.mu.Unlock()
	if batch != nil {
		// The filling request dispatches the full window inline; everyone
		// else (and this caller, below) just waits on their reply channel.
		c.dispatch(batch)
	}
	select {
	case rep := <-w.done:
		return rep, nil
	case <-ctx.Done():
		return coalesceReply{}, ctx.Err()
	}
}

// takeWindow claims the current window and disarms its timer. Callers hold mu.
func (c *coalescer) takeWindow() []*coalesceWaiter {
	batch := c.window
	c.window = nil
	c.gen++
	if c.timer != nil {
		c.timer.Stop()
		c.timer = nil
	}
	return batch
}

// flushAfterWait is the CoalesceWait timer callback: flush whatever gathered,
// unless the window it was armed for already flushed on size.
func (c *coalescer) flushAfterWait(gen uint64) {
	c.mu.Lock()
	if gen != c.gen || len(c.window) == 0 {
		c.mu.Unlock()
		return
	}
	batch := c.takeWindow()
	c.mu.Unlock()
	c.dispatch(batch)
}

// dispatch sends one closed window upstream and demuxes the replies.
func (c *coalescer) dispatch(batch []*coalesceWaiter) {
	if len(batch) == 1 || c.noBatch.Load() {
		c.singles(batch)
		return
	}

	// The batch body is the raw concatenation of the original single-query
	// bodies: {"queries":[<body1>,<body2>,...]}. No re-marshal — each body is
	// already a valid localize object, rows accept the same rss/floor/backend
	// fields, and the node ignores fields it doesn't know (e.g. "building",
	// which the router has already consumed to pick the shard).
	buf := batchBufPool.Get().([]byte)
	buf = append(buf[:0], `{"queries":[`...)
	for i, w := range batch {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, w.body...)
	}
	buf = append(buf, ']', '}')

	c.r.coalescedBatches.Add(1)
	// The upstream call is bounded by the client's Timeout, not by any one
	// waiter's context: a single canceled client must not abort the rows of
	// everyone else in the window.
	//calloc:bgctx the coalesced upstream call is bounded by the client's Timeout; one canceled waiter must not abort everyone else's rows
	resp, err := c.r.do(context.Background(), c.name, http.MethodPost, "/v1/localize/batch", buf)
	batchBufPool.Put(buf[:0])
	if err != nil {
		c.failAll(batch, err)
		return
	}
	defer resp.Body.Close()

	if resp.StatusCode == http.StatusNotFound || resp.StatusCode == http.StatusMethodNotAllowed {
		// Shard build predates the batch endpoint: latch passthrough and
		// serve this window as singles.
		if !c.noBatch.Swap(true) {
			c.r.opts.Logf("cluster: shard %q has no /v1/localize/batch (status %d); coalescing disabled for it",
				c.name, resp.StatusCode)
		}
		c.r.coalesceFallbacks.Add(1)
		io.Copy(io.Discard, resp.Body)
		c.singles(batch)
		return
	}

	body, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
	if err != nil {
		c.failAll(batch, err)
		return
	}
	if resp.StatusCode != http.StatusOK {
		// A batch-level rejection (oversized body, malformed frame) is every
		// row's answer.
		ct := resp.Header.Get("Content-Type")
		for _, w := range batch {
			deliver(w, coalesceReply{status: resp.StatusCode, body: body, ct: ct})
		}
		return
	}
	var parsed struct {
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(body, &parsed); err != nil || len(parsed.Results) != len(batch) {
		c.failAll(batch, fmt.Errorf("bad batch response (%d results for %d queries): %v",
			len(parsed.Results), len(batch), err))
		return
	}
	c.r.proxied.Add(int64(len(batch)))
	c.r.counters(c.name).proxied.Add(int64(len(batch)))
	for i, w := range batch {
		raw := parsed.Results[i]
		// Error rows carry {"error":..,"status":..}; result rows never have a
		// non-zero "status" field, so it discriminates.
		var rowErr struct {
			Error  string `json:"error"`
			Status int    `json:"status"`
		}
		if json.Unmarshal(raw, &rowErr) == nil && rowErr.Status != 0 {
			deliver(w, coalesceReply{status: rowErr.Status, body: []byte(rowErr.Error + "\n"), ct: "text/plain; charset=utf-8"})
			continue
		}
		deliver(w, coalesceReply{status: http.StatusOK, body: raw, ct: "application/json"})
	}
}

// singles proxies each waiter as a plain /v1/localize — the passthrough path
// for one-request windows and no-batch shards.
func (c *coalescer) singles(batch []*coalesceWaiter) {
	var wg sync.WaitGroup
	for _, w := range batch {
		wg.Add(1)
		go func(w *coalesceWaiter) {
			defer wg.Done()
			//calloc:bgctx the flushed single call is bounded by the client's Timeout; the waiter already detached when it entered the window
			resp, err := c.r.do(context.Background(), c.name, http.MethodPost, "/v1/localize", w.body)
			if err != nil {
				c.fail(w, err)
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
			if err != nil {
				c.fail(w, err)
				return
			}
			c.r.proxied.Add(1)
			c.r.counters(c.name).proxied.Add(1)
			deliver(w, coalesceReply{status: resp.StatusCode, body: body, ct: resp.Header.Get("Content-Type")})
		}(w)
	}
	wg.Wait()
}

func (c *coalescer) fail(w *coalesceWaiter, err error) {
	c.r.shardDown.Add(1)
	c.r.counters(c.name).down.Add(1)
	c.r.opts.Logf("cluster: shard %q down for coalesced localize: %v", c.name, err)
	deliver(w, coalesceReply{
		status: http.StatusBadGateway,
		body:   []byte(fmt.Sprintf("%v: shard %q unreachable: %v\n", ErrShardDown, c.name, err)),
		ct:     "text/plain; charset=utf-8",
	})
}

func (c *coalescer) failAll(batch []*coalesceWaiter, err error) {
	for _, w := range batch {
		c.fail(w, err)
	}
}

// batchBufPool holds the scratch buffers coalesced upstream bodies are built
// in — one live buffer per in-flight window.
var batchBufPool = sync.Pool{
	New: func() any { return make([]byte, 0, 8192) },
}
