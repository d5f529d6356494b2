package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"calloc/internal/core"
	"calloc/internal/fingerprint"
	"calloc/internal/knn"
	"calloc/internal/leakcheck"
	"calloc/internal/localizer"
	"calloc/internal/mat"
)

// scripted is a deterministic localizer: it echoes feature 0 as the
// prediction and records batch sizes; an optional gate holds every dispatch
// until released, making coalescing and backpressure deterministic to test,
// and an optional entered channel reports each dispatch as it reaches the
// gate.
type scripted struct {
	name     string
	features int
	classes  int
	gate     chan struct{}
	entered  chan struct{}

	mu         sync.Mutex
	batchSizes []int
}

func (s *scripted) Name() string    { return s.name }
func (s *scripted) InputDim() int   { return s.features }
func (s *scripted) NumClasses() int { return s.classes }

func (s *scripted) PredictInto(dst []int, x *mat.Matrix) []int {
	if s.entered != nil {
		s.entered <- struct{}{}
	}
	if s.gate != nil {
		<-s.gate
	}
	s.mu.Lock()
	s.batchSizes = append(s.batchSizes, x.Rows)
	s.mu.Unlock()
	if dst == nil {
		dst = make([]int, x.Rows)
	}
	for i := 0; i < x.Rows; i++ {
		dst[i] = unecho(x.Row(i)[0])
	}
	return dst
}

// echoScale maps the classes the echo localizers answer into the normalised
// RSS range the engine accepts: a fingerprint whose feature 0 is echo(c) is
// answered with class c, for c up to echoScale.
const echoScale = 1 << 12

func echo(class int) float64 { return float64(class) / echoScale }

func unecho(v float64) int { return int(v * echoScale) }

func (s *scripted) sizes() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int(nil), s.batchSizes...)
}

// reg1 builds a registry with one scripted localizer under key1.
func reg1(s *scripted) (*localizer.Registry, localizer.Key) {
	r := localizer.NewRegistry()
	key := localizer.Key{Building: 1, Floor: 0, Backend: s.name}
	if _, err := r.Register(key, s); err != nil {
		panic(err)
	}
	return r, key
}

// testModel builds an untrained CALLOC model with synthetic memory — result
// equivalence does not need trained weights.
func testModel(t testing.TB, numAPs, numRPs, memory int) (*core.Model, *mat.Matrix) {
	t.Helper()
	cfg := core.DefaultConfig(numAPs, numRPs)
	cfg.EmbedDim, cfg.AttnDim = 16, 8
	m, err := core.NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	db := make([]fingerprint.Sample, memory)
	for i := range db {
		rss := make([]float64, numAPs)
		for j := range rss {
			rss[j] = rng.Float64()
		}
		db[i] = fingerprint.Sample{RSS: rss, RP: i % numRPs}
	}
	if err := m.SetMemory(db); err != nil {
		t.Fatal(err)
	}
	x := mat.New(60, numAPs)
	for i := range x.Data {
		x.Data[i] = rng.Float64()
	}
	return m, x
}

func TestEngineEchoesEveryRequest(t *testing.T) {
	s := &scripted{name: "echo", features: 3, classes: 64}
	reg, key := reg1(s)
	e, err := New(reg, Options{MaxBatch: 4, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	const n = 50
	results := make([]Result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := e.Localize(nil, key, []float64{echo(i), 0, 0})
			if err != nil {
				t.Errorf("Localize %d: %v", i, err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	for i, res := range results {
		if res.Class != i {
			t.Fatalf("request %d answered %d", i, res.Class)
		}
		if res.Version != 1 || res.Backend != "echo" {
			t.Fatalf("request %d result metadata %+v", i, res)
		}
	}
	st := e.Stats()
	if st.Requests != n || st.Rows != n {
		t.Fatalf("stats lost requests: %+v", st)
	}
	if st.Batches <= 0 || st.AvgBatch <= 0 || st.Lanes != 1 {
		t.Fatalf("stats missing batches/lanes: %+v", st)
	}
}

// wedge parks n workers inside s.PredictInto, one single-row request each,
// and returns once all n are observed at the gate together. The returned
// WaitGroup completes when those requests are answered.
func wedge(t *testing.T, e *Engine, key localizer.Key, s *scripted, n int) *sync.WaitGroup {
	t.Helper()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e.Localize(nil, key, []float64{0}); err != nil {
				t.Errorf("wedged Localize: %v", err)
			}
		}()
		select {
		case <-s.entered:
		case <-time.After(5 * time.Second):
			close(s.gate) // let the held workers go, or Close would hang the failure
			t.Fatalf("worker %d never entered PredictInto while %d were held there", i+1, i)
		}
	}
	return &wg
}

// TestSameLaneOverlapsWorkers: a worker holds a lane only while it gathers,
// so with one model call of a lane in flight a second worker takes that
// lane's next request instead of leaving it queued behind the first.
func TestSameLaneOverlapsWorkers(t *testing.T) {
	s := &scripted{name: "echo", features: 1, classes: 8, gate: make(chan struct{}), entered: make(chan struct{}, 2)}
	reg, key := reg1(s)
	e, err := New(reg, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	wg := wedge(t, e, key, s, 2)
	close(s.gate)
	wg.Wait()
}

// TestEngineCoalesces: batches form from what queued while every worker was
// busy, with no clock involved — both workers are held inside the model, k
// requests arrive, and when the workers come free the backlog leaves as
// exactly one batch of k.
func TestEngineCoalesces(t *testing.T) {
	s := &scripted{name: "echo", features: 1, classes: 8, gate: make(chan struct{}), entered: make(chan struct{}, 3)}
	reg, key := reg1(s)
	e, err := New(reg, Options{MaxBatch: 8, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	wg := wedge(t, e, key, s, 2)

	const k = 6
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if res, err := e.Localize(nil, key, []float64{echo(i)}); err != nil || res.Class != i {
				t.Errorf("Localize %d = (%+v, %v)", i, res, err)
			}
		}(i)
	}
	for e.Stats().Requests < 2+k { // accepted = sitting in the lane queue
		time.Sleep(100 * time.Microsecond)
	}
	close(s.gate)
	wg.Wait()

	sizes := s.sizes() // recorded as each call leaves the gate, in no fixed order
	sort.Ints(sizes)
	if len(sizes) != 3 || sizes[2] != k {
		t.Fatalf("batch sizes %v, want [1 1 %d]", sizes, k)
	}
	if st := e.Stats(); st.Batches != 3 || st.Rows != 2+k {
		t.Fatalf("stats show %d rows in %d batches, want %d in 3 (%+v)", st.Rows, st.Batches, 2+k, st)
	}
}

// TestIdleRouteDoesNotWait: on an idle engine with the default options a
// routed request costs its two model calls and nothing else — no hop waits
// for company. 200 sequential routes through trivial localizers finish in a
// few milliseconds; any per-hop wait would put them far past the limit.
func TestIdleRouteDoesNotWait(t *testing.T) {
	const building = 3
	reg := localizer.NewRegistry()
	if _, err := reg.Register(localizer.FloorKey(building), &scripted{name: "floor", features: 2, classes: 2}); err != nil {
		t.Fatal(err)
	}
	for floor := 0; floor < 2; floor++ {
		pos := &scripted{name: "pos", features: 2, classes: 64}
		if _, err := reg.Register(localizer.Key{Building: building, Floor: floor, Backend: "pos"}, pos); err != nil {
			t.Fatal(err)
		}
	}
	e, err := New(reg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	const n = 200
	start := time.Now()
	for i := 0; i < n; i++ {
		res, err := e.Route(nil, building, "pos", []float64{echo(i % 2), 0})
		if err != nil || res.Floor != i%2 {
			t.Fatalf("Route %d = (%+v, %v)", i, res, err)
		}
	}
	if took := time.Since(start); took > 100*time.Millisecond {
		t.Fatalf("%d sequential routes on an idle engine took %v, want < 100ms", n, took)
	}
	if st := e.Stats(); st.Batches != 2*n || st.AvgBatch != 1 {
		t.Fatalf("lone caller was batched: %+v", st)
	}
}

// TestCallersAreNeverHeld: the engine is work-conserving — a worker takes
// what a lane holds and dispatches it, whether one caller or several are
// sending. Each caller makes 100 sequential Localize calls on a trivial
// localizer with the default options; the whole run costs well under a
// millisecond of model calls, so any per-dispatch wait for company would put
// it far past the limit.
func TestCallersAreNeverHeld(t *testing.T) {
	for _, callers := range []int{1, 2} {
		t.Run(fmt.Sprintf("callers=%d", callers), func(t *testing.T) {
			reg, key := reg1(&scripted{name: "echo", features: 1, classes: 8})
			e, err := New(reg, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()

			const each = 100
			var wg sync.WaitGroup
			start := time.Now()
			for c := 0; c < callers; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < each; i++ {
						if res, err := e.Localize(nil, key, []float64{echo(i)}); err != nil || res.Class != i {
							t.Errorf("Localize %d = (%+v, %v)", i, res, err)
							return
						}
					}
				}()
			}
			wg.Wait()
			if took := time.Since(start); took > 30*time.Millisecond {
				t.Fatalf("%d callers × %d sequential requests took %v, want < 30ms", callers, each, took)
			}
		})
	}
}

// TestEngineMatchesPredict: serving a CALLOC model through the registry and
// engine must return exactly what a direct model call returns.
func TestEngineMatchesPredict(t *testing.T) {
	m, x := testModel(t, 10, 4, 30)
	want := m.Predict(x)

	reg := localizer.NewRegistry()
	key := localizer.Key{Building: 1, Floor: 0, Backend: "calloc"}
	if _, err := reg.Register(key, localizer.FromCore("CALLOC", m)); err != nil {
		t.Fatal(err)
	}
	e, err := New(reg, Options{MaxBatch: 8, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	got := make([]int, x.Rows)
	var wg sync.WaitGroup
	for i := 0; i < x.Rows; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := e.Localize(nil, key, x.Row(i))
			if err != nil {
				t.Errorf("Localize %d: %v", i, err)
				return
			}
			got[i] = res.Class
		}(i)
	}
	wg.Wait()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("engine row %d = %d, direct Predict = %d", i, got[i], want[i])
		}
	}
}

// TestPerLaneBatching: two localizers share the worker budget but batch
// separately — a batch never mixes requests for different models.
func TestPerLaneBatching(t *testing.T) {
	a := &scripted{name: "a", features: 1, classes: 64}
	b := &scripted{name: "b", features: 2, classes: 64}
	reg := localizer.NewRegistry()
	keyA := localizer.Key{Building: 1, Floor: 0, Backend: "a"}
	keyB := localizer.Key{Building: 1, Floor: 0, Backend: "b"}
	if _, err := reg.Register(keyA, a); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register(keyB, b); err != nil {
		t.Fatal(err)
	}
	e, err := New(reg, Options{MaxBatch: 4, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	const n = 40
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				res, err := e.Localize(nil, keyA, []float64{echo(i)})
				if err != nil || res.Class != i {
					t.Errorf("lane a request %d: (%+v, %v)", i, res, err)
				}
			} else {
				res, err := e.Localize(nil, keyB, []float64{echo(i), 1})
				if err != nil || res.Class != i {
					t.Errorf("lane b request %d: (%+v, %v)", i, res, err)
				}
			}
		}(i)
	}
	wg.Wait()
	var servedA, servedB int
	for _, sz := range a.sizes() {
		servedA += sz
	}
	for _, sz := range b.sizes() {
		servedB += sz
	}
	if servedA != n/2 || servedB != n/2 {
		t.Fatalf("lane a served %d, lane b served %d, want %d each", servedA, servedB, n/2)
	}
	if st := e.Stats(); st.Lanes != 2 {
		t.Fatalf("Lanes = %d, want 2 (%+v)", st.Lanes, st)
	}
}

// TestHierarchicalRouting: the floor classifier picks the floor, the
// floor's localizer answers, and the result carries the routed floor.
func TestHierarchicalRouting(t *testing.T) {
	// Floor classifier: fingerprints put the floor index in feature 0.
	fc := &scripted{name: "floor", features: 2, classes: 2}
	f0 := &scripted{name: "pos", features: 2, classes: 64}
	f1 := &scripted{name: "pos", features: 2, classes: 64}
	reg := localizer.NewRegistry()
	if _, err := reg.Register(localizer.FloorKey(3), fc); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register(localizer.Key{Building: 3, Floor: 0, Backend: "pos"}, f0); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register(localizer.Key{Building: 3, Floor: 1, Backend: "pos"}, f1); err != nil {
		t.Fatal(err)
	}
	e, err := New(reg, Options{MaxBatch: 4, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	for _, tc := range []struct {
		rss       []float64
		wantFloor int
	}{
		{[]float64{echo(0), .17}, 0},
		{[]float64{echo(1), .23}, 1},
	} {
		res, err := e.Route(nil, 3, "pos", tc.rss)
		if err != nil {
			t.Fatal(err)
		}
		if res.Floor != tc.wantFloor || res.Class != unecho(tc.rss[0]) || res.Backend != "pos" {
			t.Fatalf("Route(%v) = %+v, want floor %d", tc.rss, res, tc.wantFloor)
		}
	}
	// Both stages batched: the classifier and exactly one floor lane saw
	// each fingerprint.
	if got := len(fc.sizes()); got == 0 {
		t.Fatal("floor classifier never dispatched")
	}

	// Without a classifier: single registered floor is used directly,
	// several floors are an error.
	reg2 := localizer.NewRegistry()
	only := &scripted{name: "pos", features: 1, classes: 8}
	if _, err := reg2.Register(localizer.Key{Building: 9, Floor: 4, Backend: "pos"}, only); err != nil {
		t.Fatal(err)
	}
	e2, err := New(reg2, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	res, err := e2.Route(nil, 9, "pos", []float64{echo(5)})
	if err != nil || res.Floor != 4 || res.Class != 5 {
		t.Fatalf("single-floor fallback = (%+v, %v)", res, err)
	}
	if _, err := e2.Route(nil, 9, "nope", []float64{echo(5)}); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("unknown backend routed: %v", err)
	}
	second := &scripted{name: "pos", features: 1, classes: 8}
	if _, err := reg2.Register(localizer.Key{Building: 9, Floor: 5, Backend: "pos"}, second); err != nil {
		t.Fatal(err)
	}
	if _, err := e2.Route(nil, 9, "pos", []float64{echo(5)}); err == nil {
		t.Fatal("multi-floor building without classifier must not route")
	}
}

// TestBackpressure: with the worker wedged and the lane queue full,
// Localize must block and then honour its context deadline, counting the
// event.
func TestBackpressure(t *testing.T) {
	s := &scripted{name: "echo", features: 1, classes: 8, gate: make(chan struct{}, 16)}
	reg, key := reg1(s)
	e, err := New(reg, Options{MaxBatch: 1, Workers: 1, QueueCap: 1})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(2)
	for i := 0; i < 2; i++ {
		go func() { // one wedged in the worker, one filling the queue
			defer wg.Done()
			if _, err := e.Localize(nil, key, []float64{1}); err != nil {
				t.Errorf("wedged Localize: %v", err)
			}
		}()
	}
	// Wait until the lane queue is genuinely full.
	var l *lane
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		e.laneMu.RLock()
		l = e.lanes[laneKey{key, false}]
		e.laneMu.RUnlock()
		if l != nil && len(l.reqs) == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := e.Localize(ctx, key, []float64{echo(2)}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expected DeadlineExceeded under backpressure, got %v", err)
	}
	if st := e.Stats(); st.QueueFullWaits == 0 {
		t.Fatalf("backpressure event not counted: %+v", st)
	}

	close(s.gate) // unwedge everything
	wg.Wait()
	e.Close()
}

// TestCloseGraceful: queued requests are answered after Close begins, Close
// waits for the drain, and later calls fail fast with ErrClosed.
func TestCloseGraceful(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	s := &scripted{name: "echo", features: 1, classes: 64, gate: make(chan struct{}, 64)}
	reg, key := reg1(s)
	e, err := New(reg, Options{MaxBatch: 4, Workers: 1, QueueCap: 32})
	if err != nil {
		t.Fatal(err)
	}

	const n = 10
	results := make(chan error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := e.Localize(nil, key, []float64{echo(i)})
			results <- err
		}(i)
	}
	// Let the requests enqueue (worker is wedged on the gate), then close
	// concurrently and release the gate.
	time.Sleep(10 * time.Millisecond)
	closed := make(chan struct{})
	go func() {
		e.Close()
		close(closed)
	}()
	close(s.gate)
	wg.Wait()
	<-closed

	for i := 0; i < n; i++ {
		if err := <-results; err != nil {
			t.Fatalf("pre-close request failed: %v", err)
		}
	}
	if _, err := e.Localize(nil, key, []float64{0}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Localize after Close = %v, want ErrClosed", err)
	}
	e.Close() // idempotent
}

// TestCloseOrderingDeterministic is the Close contract test: a storm of
// Localize calls racing Close must each either be fully served or fail with
// ErrClosed — no hangs, no lost requests, no other error — and the engine
// must answer exactly the accepted ones.
func TestCloseOrderingDeterministic(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	for round := 0; round < 20; round++ {
		s := &scripted{name: "echo", features: 1, classes: 1024}
		reg, key := reg1(s)
		e, err := New(reg, Options{MaxBatch: 4, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		// Materialise the lane before the race so ErrUnknownModel cannot
		// be confused into the outcome set.
		if _, err := e.Localize(nil, key, []float64{0}); err != nil {
			t.Fatal(err)
		}

		const clients = 16
		var served, refused atomic.Int64
		var wg sync.WaitGroup
		start := make(chan struct{})
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				<-start
				for i := 0; ; i++ {
					_, err := e.Localize(nil, key, []float64{echo((c*1000 + i) % echoScale)})
					switch {
					case err == nil:
						served.Add(1)
					case errors.Is(err, ErrClosed):
						refused.Add(1)
						return // closed is terminal: every later call must refuse too
					default:
						t.Errorf("client %d: unexpected error %v", c, err)
						return
					}
				}
			}(c)
		}
		close(start)
		time.Sleep(time.Duration(round%5) * 100 * time.Microsecond)
		e.Close()
		wg.Wait()

		// After Close returns every call refuses immediately.
		if _, err := e.Localize(nil, key, []float64{1}); !errors.Is(err, ErrClosed) {
			t.Fatalf("round %d: post-Close Localize = %v, want ErrClosed", round, err)
		}
		// Every accepted request was answered: accepted = served (+1 warmup).
		if st := e.Stats(); st.Rows != served.Load()+1 {
			t.Fatalf("round %d: accepted %d rows but served %d", round, st.Rows, served.Load()+1)
		}
	}
}

func TestEngineValidation(t *testing.T) {
	if _, err := New(nil, Options{}); err == nil {
		t.Fatal("nil registry accepted")
	}
	s := &scripted{name: "echo", features: 2, classes: 8}
	reg, key := reg1(s)
	e, err := New(reg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.Localize(nil, key, []float64{1}); err == nil {
		t.Fatal("wrong-width fingerprint accepted")
	}
	if _, err := e.Localize(nil, localizer.Key{Building: 7, Floor: 0, Backend: "echo"}, []float64{1, 2}); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("unknown key error = %v, want ErrUnknownModel", err)
	}
}

// TestDeregisterFailsInFlight: requests for a deregistered key fail with
// ErrUnknownModel instead of being dropped.
func TestDeregisterFailsInFlight(t *testing.T) {
	s := &scripted{name: "echo", features: 1, classes: 8}
	reg, key := reg1(s)
	e, err := New(reg, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.Localize(nil, key, []float64{1}); err != nil {
		t.Fatal(err) // lane created while registered
	}
	reg.Deregister(key)
	if _, err := e.Localize(nil, key, []float64{1}); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("deregistered key = %v, want ErrUnknownModel", err)
	}
}

// TestReregisterShapeMismatchFailsBatch: Swap preserves shapes, but
// Deregister+Register can change a key's input width under a lane pinned to
// the old one — dispatch must fail those requests, not feed the model
// wrong-width rows.
func TestReregisterShapeMismatchFailsBatch(t *testing.T) {
	s := &scripted{name: "echo", features: 2, classes: 8}
	reg, key := reg1(s)
	e, err := New(reg, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.Localize(nil, key, []float64{echo(1), echo(2)}); err != nil {
		t.Fatal(err) // lane pinned at 2 features
	}
	reg.Deregister(key)
	wide := &scripted{name: "echo", features: 3, classes: 8}
	if _, err := reg.Register(key, wide); err != nil {
		t.Fatal(err)
	}
	_, err = e.Localize(nil, key, []float64{echo(1), echo(2)})
	if err == nil || !strings.Contains(err.Error(), "lane pinned") {
		t.Fatalf("wrong-width re-registration served: %v", err)
	}
	if got := wide.sizes(); len(got) != 0 {
		t.Fatalf("mismatched localizer was dispatched: %v", got)
	}
}

// TestHotSwapUnderRoutedTraffic hammers hierarchical routing with -race
// while a writer hot-swaps one floor's localizer version through the
// registry: every result must be valid, versions must only come from
// installed snapshots, and the final version must reflect every swap.
func TestHotSwapUnderRoutedTraffic(t *testing.T) {
	const building = 5
	m, x := testModel(t, 10, 4, 30)

	// Floor classifier: route to floor 1 when feature 0 > 0.5 else floor 0.
	fc := localizer.Wrap("floor", 10, 2, nil, func(dst []int, q *mat.Matrix) []int {
		if dst == nil {
			dst = make([]int, q.Rows)
		}
		for i := 0; i < q.Rows; i++ {
			dst[i] = 0
			if q.Row(i)[0] > 0.5 {
				dst[i] = 1
			}
		}
		return dst
	})
	reg := localizer.NewRegistry()
	if _, err := reg.Register(localizer.FloorKey(building), fc); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register(localizer.Key{Building: building, Floor: 0, Backend: "calloc"},
		localizer.FromCore("CALLOC", m)); err != nil {
		t.Fatal(err)
	}
	// Floor 1: a KNN over the synthetic queries — cheap to refit for swaps.
	labels := make([]int, x.Rows)
	for i := range labels {
		labels[i] = i % 4
	}
	fitKNN := func() localizer.Localizer {
		c, err := knn.New(x, labels, 3)
		if err != nil {
			t.Fatal(err)
		}
		return localizer.FromKNN("KNN", c)
	}
	swapKey := localizer.Key{Building: building, Floor: 1, Backend: "calloc"}
	if _, err := reg.Register(swapKey, fitKNN()); err != nil {
		t.Fatal(err)
	}

	e, err := New(reg, Options{MaxBatch: 8, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	const clients = 4
	const perClient = 150
	var maxSeen atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				row := x.Row((c*perClient + i) % x.Rows)
				res, err := e.Route(nil, building, "calloc", row)
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				if res.Class < 0 || res.Class >= 4 {
					t.Errorf("client %d: out-of-range class %d", c, res.Class)
					return
				}
				wantFloor := 0
				if row[0] > 0.5 {
					wantFloor = 1
				}
				if res.Floor != wantFloor {
					t.Errorf("client %d: routed to floor %d, want %d", c, res.Floor, wantFloor)
					return
				}
				if res.Floor == 1 {
					for v := maxSeen.Load(); res.Version > uint64(v); v = maxSeen.Load() {
						maxSeen.CompareAndSwap(v, int64(res.Version))
					}
				}
			}
		}(c)
	}

	stop := make(chan struct{})
	var swaps uint64
	var swapWg sync.WaitGroup
	swapWg.Add(1)
	go func() {
		defer swapWg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := reg.Swap(swapKey, fitKNN()); err != nil {
				t.Errorf("swap: %v", err)
				return
			}
			swaps++
			time.Sleep(500 * time.Microsecond)
		}
	}()

	wg.Wait()
	close(stop)
	swapWg.Wait()
	e.Close()

	snap, ok := reg.Get(swapKey)
	if !ok || snap.Version != swaps+1 {
		t.Fatalf("final version %d, want %d (1 + %d swaps)", snap.Version, swaps+1, swaps)
	}
	if seen := uint64(maxSeen.Load()); seen > snap.Version {
		t.Fatalf("observed version %d beyond installed %d", seen, snap.Version)
	}
	if st := e.Stats(); st.Rows != clients*perClient*2 { // two stages per routed request
		t.Fatalf("served %d rows, want %d (%+v)", st.Rows, clients*perClient*2, st)
	}
}

// TestRouteMisroute: an out-of-range prediction from the floor classifier
// must surface as ErrMisroute (counted), not as a confusing ErrUnknownModel
// from the second stage.
func TestRouteMisroute(t *testing.T) {
	// The classifier claims 8 floors but only floors 0 and 1 serve a
	// position model; fingerprints put the "floor" in feature 0.
	fc := &scripted{name: "floor", features: 2, classes: 8}
	reg := localizer.NewRegistry()
	if _, err := reg.Register(localizer.FloorKey(3), fc); err != nil {
		t.Fatal(err)
	}
	for floor := 0; floor < 2; floor++ {
		pos := &scripted{name: "pos", features: 2, classes: 16}
		if _, err := reg.Register(localizer.Key{Building: 3, Floor: floor, Backend: "pos"}, pos); err != nil {
			t.Fatal(err)
		}
	}
	e, err := New(reg, Options{MaxBatch: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	if res, err := e.Route(nil, 3, "pos", []float64{echo(1), .9}); err != nil || res.Floor != 1 {
		t.Fatalf("in-range route = (%+v, %v)", res, err)
	}
	_, err = e.Route(nil, 3, "pos", []float64{echo(5), .9})
	if !errors.Is(err, ErrMisroute) {
		t.Fatalf("classifier predicting unregistered floor 5 = %v, want ErrMisroute", err)
	}
	if errors.Is(err, ErrUnknownModel) {
		t.Fatal("misroute must be distinct from ErrUnknownModel")
	}
	st := e.Stats()
	if st.Misroutes != 1 {
		t.Fatalf("Misroutes = %d, want 1 (%+v)", st.Misroutes, st)
	}
}

// waitABRows polls until key's shadow lane has scored want rows.
func waitABRows(t *testing.T, e *Engine, key localizer.Key, want int64) ABStats {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if st, ok := e.ABStats(key); ok && st.Rows >= want {
			return st
		}
		time.Sleep(time.Millisecond)
	}
	st, _ := e.ABStats(key)
	t.Fatalf("shadow lane never scored %d rows: %+v", want, st)
	return ABStats{}
}

// TestShadowDispatch: with a staged candidate and ABFraction=2, every 2nd
// routed request is also scored by the candidate — recorded in the A/B
// counters, never returned — and restaging resets the counters to describe
// the new candidate. Without a candidate nothing is sampled.
func TestShadowDispatch(t *testing.T) {
	live := &scripted{name: "pos", features: 2, classes: 64}
	reg := localizer.NewRegistry()
	key := localizer.Key{Building: 7, Floor: 0, Backend: "pos"}
	if _, err := reg.Register(key, live); err != nil {
		t.Fatal(err)
	}
	e, err := New(reg, Options{MaxBatch: 4, Workers: 2, ABFraction: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// No candidate staged: routed traffic must not be sampled at all.
	for i := 0; i < 6; i++ {
		if _, err := e.Route(nil, 7, "pos", []float64{echo(i), 0}); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := e.ABStats(key); ok {
		t.Fatal("A/B counters exist without a staged candidate")
	}

	// Candidate that always DISAGREES with the live arm (echo+1).
	disagree := localizer.Wrap("cand", 2, 64, nil, func(dst []int, x *mat.Matrix) []int {
		if dst == nil {
			dst = make([]int, x.Rows)
		}
		for i := 0; i < x.Rows; i++ {
			dst[i] = unecho(x.Row(i)[0]) + 1
		}
		return dst
	})
	c, err := reg.Stage(key, disagree)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		res, err := e.Route(nil, 7, "pos", []float64{echo(i), 0})
		if err != nil {
			t.Fatal(err)
		}
		if res.Class != i {
			t.Fatalf("request %d answered %d — the candidate's prediction leaked into a response", i, res.Class)
		}
		if res.Version != 1 {
			t.Fatalf("request %d carries version %d — staging must not advance the live version", i, res.Version)
		}
	}
	st := waitABRows(t, e, key, n/2)
	if st.CandidateVersion != c.Version {
		t.Fatalf("counters describe candidate %d, staged %d", st.CandidateVersion, c.Version)
	}
	if st.Sampled != n/2 || st.Rows != n/2 {
		t.Fatalf("sampled %d scored %d, want %d each (%+v)", st.Sampled, st.Rows, n/2, st)
	}
	if st.Agree != 0 || st.Agreement != 0 {
		t.Fatalf("always-disagreeing candidate recorded %d agreements (%+v)", st.Agree, st)
	}

	// Restage an always-AGREEING candidate: counters reset and re-attribute.
	agreeCand := localizer.Wrap("cand2", 2, 64, nil, func(dst []int, x *mat.Matrix) []int {
		if dst == nil {
			dst = make([]int, x.Rows)
		}
		for i := 0; i < x.Rows; i++ {
			dst[i] = unecho(x.Row(i)[0])
		}
		return dst
	})
	c2, err := reg.Stage(key, agreeCand)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := e.Route(nil, 7, "pos", []float64{echo(i), 0}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, _ = e.ABStats(key)
		if st.CandidateVersion == c2.Version && st.Rows >= n/2 {
			break
		}
		if !time.Now().Before(deadline) {
			t.Fatalf("counters never reset to candidate %d: %+v", c2.Version, st)
		}
		time.Sleep(time.Millisecond)
	}
	if st.Agree != st.Rows {
		t.Fatalf("always-agreeing candidate: %d agreements over %d rows (%+v)", st.Agree, st.Rows, st)
	}
	if st.AvgCandidateLatency <= 0 || st.AvgLiveLatency <= 0 {
		t.Fatalf("per-arm latencies not recorded: %+v", st)
	}

	// Aborting stops the sampling at the source.
	reg.Abort(key)
	before, _ := e.ABStats(key)
	for i := 0; i < 6; i++ {
		if _, err := e.Route(nil, 7, "pos", []float64{echo(i), 0}); err != nil {
			t.Fatal(err)
		}
	}
	after, _ := e.ABStats(key)
	if after.Sampled != before.Sampled {
		t.Fatalf("aborted candidate still sampled: %d → %d", before.Sampled, after.Sampled)
	}

	// Engine stats surface the shadow aggregate and per-key counters.
	es := e.Stats()
	if es.ShadowRows == 0 || es.ShadowBatches == 0 || len(es.AB) != 1 || es.AB[0].Key != key {
		t.Fatalf("engine stats missing shadow figures: %+v", es)
	}
}

// TestShadowNeverFailsLive: shadow enqueues drop (counted) instead of
// blocking or erroring when the shadow queue is full or the engine is
// closing.
func TestShadowNeverFailsLive(t *testing.T) {
	live := &scripted{name: "pos", features: 1, classes: 8}
	reg := localizer.NewRegistry()
	key := localizer.Key{Building: 1, Floor: 0, Backend: "pos"}
	if _, err := reg.Register(key, live); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Stage(key, &scripted{name: "cand", features: 1, classes: 8}); err != nil {
		t.Fatal(err)
	}
	e, err := New(reg, Options{MaxBatch: 1, Workers: 1, QueueCap: 1, ABFraction: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Fill the shadow lane's queue without scheduling it, so the next
	// sampled request finds it full and must drop.
	l, err := e.lane(key, true)
	if err != nil {
		t.Fatal(err)
	}
	l.reqs <- &request{x: []float64{0}, result: make(chan response, 1)}
	if _, err := e.Route(nil, 1, "pos", []float64{echo(3)}); err != nil {
		t.Fatalf("live request failed under a full shadow queue: %v", err)
	}
	if st, _ := e.ABStats(key); st.Dropped != 1 {
		t.Fatalf("full shadow queue not counted as a drop: %+v", st)
	}
	<-l.reqs // drain the stuffed request so Close's workers see an empty lane

	e.Close()
	// After Close, shadowing drops silently rather than racing the drain.
	e.sample(key, []float64{1}, 0, time.Now())
	if st, _ := e.ABStats(key); st.Dropped != 2 {
		t.Fatalf("post-Close shadow not dropped: %+v", st)
	}
}

// TestShadowSamplingPerKey: the every-Nth shadow cadence is per key, so
// strictly alternating traffic across two staged candidates exposes BOTH —
// a single global counter would alias one key out of all shadow rows.
func TestShadowSamplingPerKey(t *testing.T) {
	reg := localizer.NewRegistry()
	keys := make([]localizer.Key, 2)
	for b := 0; b < 2; b++ {
		live := &scripted{name: "pos", features: 1, classes: 8}
		keys[b] = localizer.Key{Building: b, Floor: 0, Backend: "pos"}
		if _, err := reg.Register(keys[b], live); err != nil {
			t.Fatal(err)
		}
		if _, err := reg.Stage(keys[b], &scripted{name: "cand", features: 1, classes: 8}); err != nil {
			t.Fatal(err)
		}
	}
	e, err := New(reg, Options{MaxBatch: 4, Workers: 2, ABFraction: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	const perKey = 20
	for i := 0; i < perKey; i++ {
		for b := 0; b < 2; b++ { // strict alternation
			if _, err := e.Route(nil, b, "pos", []float64{echo(i % 8)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for b := 0; b < 2; b++ {
		st := waitABRows(t, e, keys[b], perKey/2)
		if st.Sampled != perKey/2 {
			t.Fatalf("key %d sampled %d of %d, want every 2nd (%d)", b, st.Sampled, perKey, perKey/2)
		}
	}
}
