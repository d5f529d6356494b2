// Package serve implements the online serving layer: a micro-batching engine
// that coalesces concurrent single-fingerprint localization requests into
// batched model calls, dispatching through a localizer.Registry so many
// models — multiple buildings, floors, and backends — share one worker
// budget and can be hot-swapped while serving.
//
// Online localization is a many-small-queries workload — every request is a
// single RSS vector, but a single-row forward pass streams the full weight
// and attention-memory working set from cache for one query's worth of
// arithmetic. Batching amortises that traffic across every query in the
// batch, so coalescing B concurrent requests into one batched call costs
// less than B single-row calls. The engine never waits for company, though:
// a worker takes what a lane holds when it gets there and dispatches it at
// once, so an idle engine answers a lone request at the cost of one model
// call, and batches form only from what queued while every worker was busy.
//
// Every registered localizer gets its own micro-batch lane (a bounded queue
// that only ever coalesces requests for that localizer), and a shared pool
// of workers services whichever lanes have pending requests in turn — so one
// hot model cannot starve the others, and adding a backend costs a queue, not
// a thread pool. A worker holds a lane only while it gathers; the model call
// runs with the lane released, so a second worker can take the hot lane's
// next batch while the first computes.
//
// Requests route hierarchically: Localize addresses one registered
// {building, floor, backend} key directly; Route first consults the
// building's floor classifier (registered under localizer.FloorKey) to pick
// the floor, then localizes the position on that floor's backend. Both
// stages are micro-batched.
//
// Models are updated by hot-swap: build a NEW localizer and Registry.Swap it
// in. Lock-free for readers; in-flight batches finish on the old snapshot. A
// registered localizer is never mutated in place (see DESIGN.md).
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"calloc/internal/localizer"
	"calloc/internal/mat"
	"calloc/internal/radio"
)

// ErrClosed is returned by Localize/Route calls that start after Close has
// begun. See Close for the exact ordering guarantee.
var ErrClosed = errors.New("serve: engine closed")

// ErrUnknownModel is returned when a request addresses a key with no
// registered localizer.
var ErrUnknownModel = errors.New("serve: no localizer registered for key")

// ErrMisroute is returned by Route when the building's floor classifier
// predicts a floor with no registered localizer for the requested backend —
// a classifier bug or drift, not a client addressing error. Counted in
// Stats.Misroutes.
var ErrMisroute = errors.New("serve: floor classifier predicted an unregistered floor")

// Options configures an Engine.
type Options struct {
	// MaxBatch caps how many requests one model call coalesces (default 32).
	MaxBatch int
	// Workers is the number of concurrent batch dispatchers shared by every
	// lane (default min(2, GOMAXPROCS)). More workers overlap model calls
	// at the cost of smaller batches; on a single-core host extra workers
	// only fragment batches.
	Workers int
	// QueueCap bounds each lane's pending-request queue (default
	// 4×MaxBatch). When a lane's queue is full, requests for that localizer
	// block — backpressure propagates to callers instead of growing memory
	// without bound, and one overloaded model does not consume another
	// model's queue space.
	QueueCap int
}

func (o *Options) setDefaults() {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 32
	}
	if o.Workers <= 0 {
		o.Workers = 2
		if n := runtime.GOMAXPROCS(0); n < 2 {
			o.Workers = n
		}
	}
	if o.QueueCap <= 0 {
		o.QueueCap = 4 * o.MaxBatch
	}
}

// response is what a worker delivers back to one request.
type response struct {
	class   int
	version uint64
	err     error
}

// request is one in-flight unit of localization work: a single query (rn ==
// 1) or a pre-formed batch of rn rows packed row-major into x
// (LocalizeBatch). A batch occupies ONE lane-queue slot and one wakeup, which
// is what amortises the gather protocol across its rows.
type request struct {
	x      []float64 // rn × features, row-major
	rn     int       // rows carried by this request
	out    []int     // batch only: per-row classes, written by the worker before the result send
	enq    time.Time
	result chan response // buffered (cap 1) so an abandoned caller never blocks a worker
}

// lane is one localizer's micro-batch queue. Lanes are created on first use
// of a registered key and persist across hot-swaps (the registry enforces
// that swaps preserve the input width the lane was sized with).
type lane struct {
	key      localizer.Key
	features int
	reqs     chan *request

	// requests counts accepted Localize calls for this key since the engine
	// started — monotonic, never reset by swaps — so a fleet router can read
	// per-shard, per-key load out of Stats.Keys.
	requests atomic.Int64

	// pending counts accepted-but-ungathered requests; scheduled is true
	// while the lane sits in the run queue or a worker is gathering from it.
	// Together they guarantee a lane with pending work is always either
	// queued or about to be re-queued by the worker that holds it (no lost
	// wakeups), and that at most one worker gathers from a lane at a time
	// (so a backlog leaves as one batch instead of fragmenting across
	// workers). The hold ends when the gather does: model calls for one lane
	// may overlap.
	pending   atomic.Int64
	scheduled atomic.Bool
}

// Engine coalesces concurrent localization requests into batched model
// calls, one micro-batch lane per registered localizer, dispatched by a
// shared worker pool.
type Engine struct {
	reg  *localizer.Registry
	opts Options

	// laneMu guards the lane map (read-mostly; lanes are created once per
	// key and never removed while the engine runs).
	laneMu sync.RWMutex
	lanes  map[localizer.Key]*lane

	// runMu/cond protect the run queue of lanes with pending requests.
	// draining tells idle workers to exit once the queue is empty.
	runMu    sync.Mutex
	cond     *sync.Cond
	runq     []*lane
	draining bool

	// sendMu guards the closed flag: senders hold the read side for the
	// duration of an enqueue, Close takes the write side to flip the flag.
	// This is what makes the Close ordering deterministic — a request is
	// either fully enqueued before Close flips the flag (and will be
	// answered) or observes closed and fails with ErrClosed.
	sendMu sync.RWMutex
	closed bool

	workers sync.WaitGroup
	reqPool sync.Pool
	started time.Time

	// Throughput and latency counters (atomic; see Stats).
	requests  atomic.Int64
	batches   atomic.Int64
	rows      atomic.Int64
	fullWaits atomic.Int64
	completed atomic.Int64
	latencyNs atomic.Int64
	misroutes atomic.Int64
}

// New starts an engine dispatching into the given registry. Localizers may
// be registered and swapped while the engine runs.
func New(reg *localizer.Registry, opts Options) (*Engine, error) {
	if reg == nil {
		return nil, errors.New("serve: nil registry")
	}
	opts.setDefaults()
	e := &Engine{
		reg:     reg,
		opts:    opts,
		lanes:   make(map[localizer.Key]*lane),
		started: time.Now(),
	}
	e.cond = sync.NewCond(&e.runMu)
	e.reqPool.New = func() any {
		return &request{result: make(chan response, 1)}
	}
	e.workers.Add(opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		go e.run()
	}
	return e, nil
}

// Result is one answered localization request.
type Result struct {
	// Class is the predicted label: a reference point for position lanes, a
	// floor index for the floor-classifier lane.
	Class int
	// Floor is the floor that served the request: the routed floor for
	// Route, the addressed key's floor for Localize.
	Floor int
	// Backend is the backend that served the request.
	Backend string
	// Version is the registry snapshot version that computed the result —
	// how clients observe hot-swaps.
	Version uint64
	// Err is the per-row failure of a batch call (LocalizeBatch/RouteBatch):
	// a wrong-width or out-of-domain row, a per-row misroute, or the
	// batch-level dispatch error. One bad row never fails its batch — it just
	// carries its own error here. Always nil for the single-request entry points, which
	// report errors through their error return instead.
	Err error
}

// Localize coalesces one fingerprint into the micro-batch lane of the
// localizer registered under key, blocking until a worker delivers its
// result. A fingerprint of the wrong width or with a value outside the
// normalised RSS range [0, 1] fails before it is queued. When the lane's
// queue is full the call blocks (backpressure) until space frees or ctx is
// done. A nil ctx means context.Background().
//
// Close ordering: a call that observes Close fails with ErrClosed before
// enqueueing; a call that enqueued before Close began is always answered.
func (e *Engine) Localize(ctx context.Context, key localizer.Key, rss []float64) (Result, error) {
	if ctx == nil {
		ctx = context.Background() // nil opts out of cancellation, as documented
	}
	l, err := e.lane(key)
	if err != nil {
		return Result{}, err
	}
	if len(rss) != l.features {
		return Result{}, fmt.Errorf("serve: fingerprint has %d features, %s expects %d",
			len(rss), key, l.features)
	}
	if err := radio.CheckNormalized(rss); err != nil {
		return Result{}, fmt.Errorf("serve: fingerprint: %w", err)
	}
	//calloc:handoff ownership moves through enqueue to the lane worker; reclaimed from r.result
	r := e.reqPool.Get().(*request)
	if cap(r.x) < l.features {
		r.x = make([]float64, l.features)
	}
	r.x = r.x[:l.features]
	copy(r.x, rss)
	r.rn = 1
	r.out = r.out[:0] // non-empty out marks a batch request; singles answer through response.class
	r.enq = time.Now()

	if err := e.enqueue(ctx, l, r, 1); err != nil {
		return Result{}, err
	}

	select {
	case rp := <-r.result:
		e.latencyNs.Add(time.Since(r.enq).Nanoseconds())
		e.completed.Add(1)
		e.reqPool.Put(r)
		if rp.err != nil {
			return Result{}, rp.err
		}
		return Result{Class: rp.class, Floor: key.Floor, Backend: key.Backend, Version: rp.version}, nil
	case <-ctx.Done():
		// The worker may still deliver into r.result (cap 1); the request
		// is abandoned to the GC rather than recycled.
		return Result{}, ctx.Err()
	}
}

// enqueue submits r into l under the close-ordering protocol shared by every
// entry point: the closed flag is checked under the read side of sendMu held
// across the whole enqueue, so a request either fully enqueues before Close
// flips the flag (and will be answered) or fails with ErrClosed. rows is how
// many fingerprints r carries, for the throughput counters. On failure the
// request was never enqueued and has been recycled.
func (e *Engine) enqueue(ctx context.Context, l *lane, r *request, rows int64) error {
	e.sendMu.RLock()
	if e.closed {
		e.sendMu.RUnlock()
		e.reqPool.Put(r)
		return ErrClosed
	}
	select {
	case l.reqs <- r:
	default:
		// Lane queue full: count the backpressure event, then wait for space.
		e.fullWaits.Add(1)
		// Blocking under sendMu.RLock is the close-ordering protocol: Close's
		// write lock waits until every enqueued request is in its lane.
		select {
		case l.reqs <- r:
		case <-ctx.Done():
			e.sendMu.RUnlock()
			e.reqPool.Put(r) // never enqueued: safe to recycle
			return ctx.Err()
		}
	}
	l.pending.Add(1)
	e.schedule(l)
	e.sendMu.RUnlock()
	e.requests.Add(rows)
	l.requests.Add(rows)
	return nil
}

// LocalizeBatch coalesces a pre-formed batch of fingerprints into the
// micro-batch lane of the localizer registered under key. The whole batch
// occupies one queue slot and pays one gather/wakeup — the per-query protocol
// cost is amortised across the rows, which is what makes a batched wire call
// cheap. A batch larger than MaxBatch dispatches as one oversized model call.
//
// Errors are per row: results[i].Err carries row i's failure (wrong feature
// width, a value outside [0, 1], or the batch-level dispatch error) and one
// bad row never fails the batch. The error return is reserved for call-level failures: an
// unregistered key, a closing engine (ErrClosed), or ctx expiring before the
// batch was enqueued or answered.
func (e *Engine) LocalizeBatch(ctx context.Context, key localizer.Key, rss [][]float64) ([]Result, error) {
	if ctx == nil {
		ctx = context.Background() // nil opts out of cancellation, as documented
	}
	out := make([]Result, len(rss))
	if len(rss) == 0 {
		return out, nil
	}
	l, err := e.lane(key)
	if err != nil {
		return nil, err
	}
	f := l.features
	valid := 0
	for i, row := range rss {
		if len(row) != f {
			out[i].Err = fmt.Errorf("serve: batch row %d has %d features, %s expects %d",
				i, len(row), key, f)
		} else if err := radio.CheckNormalized(row); err != nil {
			out[i].Err = fmt.Errorf("serve: batch row %d: %w", i, err)
		} else {
			valid++
		}
	}
	//calloc:handoff ownership moves through enqueue to the lane worker; reclaimed from r.result
	r := e.reqPool.Get().(*request)
	if cap(r.x) < valid*f {
		r.x = make([]float64, valid*f)
	}
	r.x = r.x[:valid*f]
	if cap(r.out) < valid {
		r.out = make([]int, valid)
	}
	r.out = r.out[:valid]
	vi := 0
	for i, row := range rss {
		if out[i].Err != nil {
			continue
		}
		copy(r.x[vi*f:(vi+1)*f], row)
		vi++
	}
	if valid == 0 {
		e.reqPool.Put(r)
		return out, nil
	}
	r.rn = valid
	r.enq = time.Now()
	if err := e.enqueue(ctx, l, r, int64(valid)); err != nil {
		return nil, err
	}

	select {
	case rp := <-r.result:
		wait := time.Since(r.enq).Nanoseconds()
		e.latencyNs.Add(wait * int64(valid))
		e.completed.Add(int64(valid))
		vi = 0
		for i := range out {
			if out[i].Err != nil {
				continue
			}
			if rp.err != nil {
				out[i].Err = rp.err
			} else {
				out[i] = Result{Class: r.out[vi], Floor: key.Floor, Backend: key.Backend, Version: rp.version}
			}
			vi++
		}
		e.reqPool.Put(r)
		return out, nil
	case <-ctx.Done():
		// The worker may still write r.out and deliver into r.result; the
		// request (and its out buffer) is abandoned to the GC.
		return nil, ctx.Err()
	}
}

// RouteBatch localizes a pre-formed batch hierarchically: the building's
// floor classifier scores every row in one batched call, rows are grouped by
// predicted floor, and each floor group dispatches as one LocalizeBatch on
// that floor's backend (groups run concurrently). Per-row misroutes — the
// classifier predicting an unregistered floor — fail only their own row with
// ErrMisroute in results[i].Err, exactly mirroring Route's semantics.
func (e *Engine) RouteBatch(ctx context.Context, building int, backend string, rss [][]float64) ([]Result, error) {
	if ctx == nil {
		ctx = context.Background() // nil opts out of cancellation, as documented
	}
	out := make([]Result, len(rss))
	if len(rss) == 0 {
		return out, nil
	}
	// Group rows by floor: the classifier's per-row prediction, each checked
	// for a misroute exactly as Route checks it, or the building's only floor.
	groups := make(map[int][]int)
	if _, ok := e.reg.Get(localizer.FloorKey(building)); ok {
		fres, err := e.LocalizeBatch(ctx, localizer.FloorKey(building), rss)
		if err != nil {
			return nil, err
		}
		for i, fr := range fres {
			if fr.Err == nil {
				fr.Err = e.checkFloor(building, backend, fr.Class)
			}
			if fr.Err != nil {
				out[i].Err = fr.Err
				continue
			}
			groups[fr.Class] = append(groups[fr.Class], i)
		}
	} else {
		floor, err := e.onlyFloor(building, backend)
		if err != nil {
			return nil, err
		}
		groups[floor] = make([]int, len(rss))
		for i := range rss {
			groups[floor][i] = i
		}
	}

	dispatchGroup := func(floor int, idxs []int) {
		key := localizer.Key{Building: building, Floor: floor, Backend: backend}
		rows := rss
		if len(idxs) != len(rss) {
			rows = make([][]float64, len(idxs))
			for j, i := range idxs {
				rows[j] = rss[i]
			}
		}
		res, err := e.LocalizeBatch(ctx, key, rows)
		for j, i := range idxs {
			if err != nil {
				out[i].Err = err
			} else {
				out[i] = res[j]
			}
		}
	}
	if len(groups) == 1 {
		// The overwhelmingly common shape — a whole batch on one floor —
		// dispatches inline without goroutines or row copies.
		for floor, idxs := range groups {
			dispatchGroup(floor, idxs)
		}
		return out, nil
	}
	var wg sync.WaitGroup
	for floor, idxs := range groups {
		wg.Add(1)
		go func(floor int, idxs []int) {
			defer wg.Done()
			dispatchGroup(floor, idxs)
		}(floor, idxs)
	}
	wg.Wait()
	return out, nil
}

// Route localizes hierarchically: the building's floor classifier (if
// registered under localizer.FloorKey) picks the floor, then the floor's
// backend localizer predicts the position. Without a floor classifier the
// building must have exactly one registered floor for the backend, which is
// used directly. Both stages are micro-batched: a routed request makes two
// lane hops.
func (e *Engine) Route(ctx context.Context, building int, backend string, rss []float64) (Result, error) {
	var floor int
	if _, ok := e.reg.Get(localizer.FloorKey(building)); ok {
		fr, err := e.Localize(ctx, localizer.FloorKey(building), rss)
		if err != nil {
			return Result{}, err
		}
		floor = fr.Class
		if err := e.checkFloor(building, backend, floor); err != nil {
			return Result{}, err
		}
	} else {
		var err error
		if floor, err = e.onlyFloor(building, backend); err != nil {
			return Result{}, err
		}
	}
	return e.Localize(ctx, localizer.Key{Building: building, Floor: floor, Backend: backend}, rss)
}

// onlyFloor is the floor a building without a floor classifier routes to:
// the one floor registered for backend. None is ErrUnknownModel, and more
// than one cannot be routed.
func (e *Engine) onlyFloor(building int, backend string) (int, error) {
	floors := e.reg.Floors(building, backend)
	switch len(floors) {
	case 0:
		return 0, fmt.Errorf("%w: building %d backend %q", ErrUnknownModel, building, backend)
	case 1:
		return floors[0], nil
	}
	return 0, fmt.Errorf("serve: building %d has %d floors for backend %q and no floor classifier",
		building, len(floors), backend)
}

// checkFloor validates a floor classifier's prediction before the second
// stage dispatches. The predicted class is an index into the classifier's
// own label space, not necessarily a registered floor: a buggy or drifted
// classifier (or one trained for more floors than this deployment serves)
// would otherwise surface as a confusing ErrUnknownModel from the second
// stage. A floor with no localizer for backend is reported as what it is,
// ErrMisroute, and counted.
func (e *Engine) checkFloor(building int, backend string, floor int) error {
	if _, ok := e.reg.Get(localizer.Key{Building: building, Floor: floor, Backend: backend}); ok {
		return nil
	}
	e.misroutes.Add(1)
	return fmt.Errorf("%w: building %d backend %q predicted floor %d (registered floors %v)",
		ErrMisroute, building, backend, floor, e.reg.Floors(building, backend))
}

// lane returns (creating on first use) the micro-batch lane for key. Lane
// creation requires the key to be registered; the lane's feature width is
// pinned from the localizer's InputDim, which registry swaps preserve.
func (e *Engine) lane(key localizer.Key) (*lane, error) {
	e.laneMu.RLock()
	l, ok := e.lanes[key]
	e.laneMu.RUnlock()
	if ok {
		return l, nil
	}
	snap, ok := e.reg.Get(key)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownModel, key)
	}
	e.laneMu.Lock()
	defer e.laneMu.Unlock()
	if l, ok := e.lanes[key]; ok {
		return l, nil
	}
	l = &lane{
		key:      key,
		features: snap.Localizer.InputDim(),
		reqs:     make(chan *request, e.opts.QueueCap),
	}
	e.lanes[key] = l
	return l, nil
}

// schedule puts l on the run queue unless it is already queued or a worker is
// gathering from it. The scheduled flag serialises gathering per lane; the
// worker re-checks pending after clearing it, so a request enqueued
// concurrently with a gather is never stranded.
//
//calloc:noalloc
func (e *Engine) schedule(l *lane) {
	if !l.scheduled.CompareAndSwap(false, true) {
		return
	}
	e.runMu.Lock()
	e.runq = append(e.runq, l)
	e.runMu.Unlock()
	e.cond.Signal()
}

// run is one shared worker: pull a lane with pending requests, gather what it
// holds, release the lane, dispatch the batch, repeat.
func (e *Engine) run() {
	defer e.workers.Done()
	maxB := e.opts.MaxBatch
	batch := make([]*request, 0, maxB)
	dst := make([]int, maxB)
	var xbuf []float64
	// Worker-owned matrix header, refilled per dispatch: mat.FromSlice would
	// heap-allocate one per batch (one per request at batch size 1).
	xm := new(mat.Matrix)
	for {
		e.runMu.Lock()
		for len(e.runq) == 0 && !e.draining {
			e.cond.Wait()
		}
		if len(e.runq) == 0 {
			// Draining and nothing queued: all accepted requests are served
			// (a lane with pending work is always queued or held by a live
			// worker that will re-queue it, and a gathered batch is dispatched
			// before its worker comes back here).
			e.runMu.Unlock()
			return
		}
		// Pop by shifting rather than re-slicing: runq[1:] would bleed the
		// backing array's capacity away, making every schedule() append
		// allocate. The shift is O(len) but runq holds at most one entry
		// per lane with pending work — single digits in practice.
		l := e.runq[0]
		copy(e.runq, e.runq[1:])
		e.runq = e.runq[:len(e.runq)-1]
		e.runMu.Unlock()

		batch = e.gather(l, batch[:0])

		// Release the lane before the model call: decrement pending by what
		// we took, clear the hold, then re-check — requests that arrived
		// during the gather CAS'd against our hold and rely on this
		// re-schedule. Whatever arrives from here on is another worker's
		// batch (or this worker's next).
		l.pending.Add(int64(-len(batch)))
		l.scheduled.Store(false)
		if l.pending.Load() > 0 {
			e.schedule(l)
		}
		if len(batch) == 0 {
			continue
		}

		// A batch is capped at maxB ROWS, but one oversized batch request can
		// carry more — size the scratch to what was actually gathered.
		rows := 0
		for _, r := range batch {
			rows += r.rn
		}
		if cap(xbuf) < rows*l.features {
			xbuf = make([]float64, max(rows, maxB)*l.features)
		}
		if cap(dst) < rows {
			dst = make([]int, rows)
		}
		e.dispatch(l, batch, rows, dst, xbuf, xm)
	}
}

// gather takes what l holds right now, up to MaxBatch ROWS (a pre-formed
// batch request contributes all its rows at once), and returns: a worker never
// waits for company. Not even the first receive may block: a worker can
// consume a request from the lane channel before the sender's pending
// increment lands, in which case the sender's subsequent schedule re-queues an
// already-drained lane — such a spurious pop returns an empty batch and the
// caller just releases the lane.
//
//calloc:noalloc
func (e *Engine) gather(l *lane, batch []*request) []*request {
	for rows := 0; rows < e.opts.MaxBatch; {
		select {
		case r := <-l.reqs:
			batch = append(batch, r)
			rows += r.rn
		default:
			return batch
		}
	}
	return batch
}

// dispatch assembles the batch into one matrix, pins the lane's current
// registry snapshot, runs the model, and delivers per-request results stamped
// with the snapshot version. Batch requests get their rows copied into their
// own out buffer before the result send (the channel send is the
// happens-before edge the waiting caller reads across).
func (e *Engine) dispatch(l *lane, batch []*request, rows int, dst []int, xbuf []float64, x *mat.Matrix) {
	f := l.features
	off := 0
	for _, r := range batch {
		copy(xbuf[off:off+r.rn*f], r.x[:r.rn*f])
		off += r.rn * f
	}
	// x is the worker's reusable header over its scratch; the localizer only
	// reads it during PredictInto, so refilling it next batch is safe.
	x.Rows, x.Cols, x.Data = rows, f, xbuf[:rows*f]

	// A lane exists only for a registered key, keys are never removed, and
	// swaps preserve the input width the lane was sized with.
	snap, _ := e.reg.Get(l.key)
	snap.Localizer.PredictInto(dst[:rows], x)

	// Counted before delivery, so a caller holding its answer finds its batch
	// in Stats.
	e.batches.Add(1)
	e.rows.Add(int64(rows))
	off = 0
	for _, r := range batch {
		// The result send releases the request back to its caller (which may
		// recycle it immediately) — nothing on r may be touched after it.
		rn := r.rn
		if len(r.out) > 0 {
			copy(r.out, dst[off:off+rn])
			r.result <- response{version: snap.Version}
		} else {
			r.result <- response{class: dst[off], version: snap.Version}
		}
		off += rn
	}
}

// Close shuts the engine down gracefully. The ordering guarantee is
// deterministic and two-sided:
//
//   - Any Localize/Route call that has not finished enqueueing when Close
//     flips the closed flag fails with ErrClosed (never a hang, never a
//     lost request): the flag is checked under the same lock senders hold
//     across the enqueue.
//   - Any request fully enqueued before the flag flipped is answered: Close
//     only tells workers to drain after the flag is visible, and workers
//     exit only when every lane's queue is empty.
//
// Close returns once every worker has drained and exited; it is idempotent.
func (e *Engine) Close() {
	e.sendMu.Lock()
	already := e.closed
	e.closed = true
	e.sendMu.Unlock()
	if !already {
		e.runMu.Lock()
		e.draining = true
		e.runMu.Unlock()
		e.cond.Broadcast()
	}
	e.workers.Wait()
}

// KeyStats is one lane's share of the engine's load: a monotonic count of
// accepted requests for that key since the engine started. A fleet router
// merges these across shards into the per-shard load view.
type KeyStats struct {
	Key      localizer.Key `json:"key"`
	Requests int64         `json:"requests"`
}

// Stats is a point-in-time snapshot of the engine's counters.
type Stats struct {
	// Uptime is how long the engine has been running.
	Uptime time.Duration `json:"uptime_ns"`
	// Requests is the number of accepted fingerprints (both routing stages
	// count; a batch call counts each of its rows).
	Requests int64 `json:"requests"`
	// Batches is the number of model calls dispatched.
	Batches int64 `json:"batches"`
	// Rows is the total number of fingerprints across all batches.
	Rows int64 `json:"rows"`
	// QueueFullWaits counts requests that hit backpressure (full lane queue).
	QueueFullWaits int64 `json:"queue_full_waits"`
	// Lanes is the number of micro-batch lanes created so far.
	Lanes int `json:"lanes"`
	// AvgBatch is Rows/Batches — the realised coalescing factor.
	AvgBatch float64 `json:"avg_batch"`
	// AvgLatency is the mean enqueue-to-result time of completed requests.
	AvgLatency time.Duration `json:"avg_latency_ns"`
	// Misroutes counts routed requests whose floor classifier predicted a
	// floor with no registered localizer (failed with ErrMisroute).
	Misroutes int64 `json:"misroutes"`
	// Keys is the per-key monotonic request count of every lane, ordered by
	// key — the per-shard load breakdown a fleet router aggregates.
	Keys []KeyStats `json:"keys,omitempty"`
}

// Stats returns a snapshot of the engine's throughput and latency counters.
func (e *Engine) Stats() Stats {
	var keys []KeyStats
	e.laneMu.RLock()
	for _, l := range e.lanes {
		keys = append(keys, KeyStats{Key: l.key, Requests: l.requests.Load()})
	}
	e.laneMu.RUnlock()
	sort.Slice(keys, func(i, j int) bool { return keys[i].Key.Less(keys[j].Key) })
	s := Stats{
		Uptime:         time.Since(e.started),
		Requests:       e.requests.Load(),
		Batches:        e.batches.Load(),
		Rows:           e.rows.Load(),
		QueueFullWaits: e.fullWaits.Load(),
		Lanes:          len(keys),
		Misroutes:      e.misroutes.Load(),
		Keys:           keys,
	}
	if s.Batches > 0 {
		s.AvgBatch = float64(s.Rows) / float64(s.Batches)
	}
	if done := e.completed.Load(); done > 0 {
		s.AvgLatency = time.Duration(e.latencyNs.Load() / done)
	}
	return s
}
