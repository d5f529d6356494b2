package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// NodeHealth is one node's membership state as observed by the prober.
type NodeHealth struct {
	URL string `json:"url"`
	// Healthy is the result of the most recent probe. A node with no
	// completed probe yet reports unhealthy with an empty LastProbe.
	Healthy   bool      `json:"healthy"`
	LastProbe time.Time `json:"last_probe,omitempty"`
	// LastOK is the time of the most recent successful probe.
	LastOK time.Time `json:"last_ok,omitempty"`
	Err    string    `json:"error,omitempty"`
}

// Prober maintains fleet membership state by probing every node's /healthz
// on a fixed cadence. It is the health half of the cluster layer: the shard
// map says who OWNS a key, the prober says who is ALIVE.
type Prober struct {
	nodes    map[string]string
	interval time.Duration
	client   *http.Client
	logf     func(string, ...any)

	mu     sync.Mutex
	status map[string]NodeHealth

	stop    chan struct{}
	done    chan struct{}
	once    sync.Once
	started atomic.Bool
}

// NewProber builds a prober over the named nodes. interval <= 0 selects 2s;
// a nil client gets a 2s-timeout default.
func NewProber(nodes map[string]string, interval time.Duration, client *http.Client,
	logf func(string, ...any)) *Prober {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	if client == nil {
		client = &http.Client{Timeout: 2 * time.Second}
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	p := &Prober{
		nodes:    copyMap(nodes),
		interval: interval,
		client:   client,
		logf:     logf,
		status:   make(map[string]NodeHealth, len(nodes)),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	for name, url := range p.nodes {
		p.status[name] = NodeHealth{URL: url}
	}
	return p
}

// Start probes every node once synchronously (so Status is meaningful
// immediately), then keeps probing on the cadence until Close. Idempotent.
func (p *Prober) Start() {
	if !p.started.CompareAndSwap(false, true) {
		return
	}
	// The probes outlive any request, so they take no caller's context: each
	// is bounded by the prober's client timeout.
	p.ProbeOnce(context.Background())
	go func() {
		defer close(p.done)
		ticker := time.NewTicker(p.interval)
		defer ticker.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-ticker.C:
				p.ProbeOnce(context.Background())
			}
		}
	}()
}

// Close stops the probe loop. Idempotent; safe to call without Start (the
// probe goroutine is only waited for when it was started).
func (p *Prober) Close() {
	p.once.Do(func() {
		close(p.stop)
	})
	if p.started.Load() {
		<-p.done
	}
}

// ProbeOnce probes every node concurrently and updates Status.
func (p *Prober) ProbeOnce(ctx context.Context) {
	var wg sync.WaitGroup
	for name, url := range p.nodes {
		wg.Add(1)
		go func(name, url string) {
			defer wg.Done()
			h := NodeHealth{URL: url, LastProbe: time.Now()}
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/healthz", nil)
			if err == nil {
				var resp *http.Response
				resp, err = p.client.Do(req)
				if err == nil {
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						err = fmt.Errorf("healthz status %d", resp.StatusCode)
					}
				}
			}
			p.mu.Lock()
			prev := p.status[name]
			h.LastOK = prev.LastOK
			if err != nil {
				h.Err = err.Error()
				if prev.Healthy || prev.LastProbe.IsZero() {
					p.logf("cluster: node %q unhealthy: %v", name, err)
				}
			} else {
				h.Healthy = true
				h.LastOK = h.LastProbe
				if !prev.Healthy && !prev.LastProbe.IsZero() {
					p.logf("cluster: node %q healthy again", name)
				}
			}
			p.status[name] = h
			p.mu.Unlock()
		}(name, url)
	}
	wg.Wait()
}

// Status returns the latest health observation of every node.
func (p *Prober) Status() map[string]NodeHealth {
	p.mu.Lock()
	defer p.mu.Unlock()
	return copyMap(p.status)
}
