package serve

import (
	"context"
	"errors"
	"sync"
	"testing"

	"calloc/internal/localizer"
	"calloc/internal/mat"
)

// TestLocalizeBatchMatchesSingles: a pre-formed batch must return exactly the
// results of N sequential single requests — same classes, same snapshot
// version — while dispatching as ONE model call (the amortisation the batch
// API exists for).
func TestLocalizeBatchMatchesSingles(t *testing.T) {
	s := &scripted{name: "echo", features: 2, classes: 64}
	reg, key := reg1(s)
	e, err := New(reg, Options{MaxBatch: 16, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	rows := make([][]float64, 8)
	want := make([]Result, len(rows))
	for i := range rows {
		rows[i] = []float64{float64(i * 3), 1}
		res, err := e.Localize(nil, key, rows[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	singleCalls := len(s.sizes())

	got, err := e.LocalizeBatch(nil, key, rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) {
		t.Fatalf("batch returned %d results for %d rows", len(got), len(rows))
	}
	for i, g := range got {
		if g.Err != nil {
			t.Fatalf("row %d failed: %v", i, g.Err)
		}
		if g.Class != want[i].Class || g.Version != want[i].Version ||
			g.Floor != want[i].Floor || g.Backend != want[i].Backend {
			t.Fatalf("row %d = %+v, single = %+v", i, g, want[i])
		}
	}
	sizes := s.sizes()
	if len(sizes) != singleCalls+1 || sizes[len(sizes)-1] != len(rows) {
		t.Fatalf("batch of %d dispatched as calls %v after %d singles — want one call of %d",
			len(rows), sizes[singleCalls:], singleCalls, len(rows))
	}
}

// TestLocalizeBatchPerRowErrors: a wrong-width row fails alone; every other
// row of the batch is still answered.
func TestLocalizeBatchPerRowErrors(t *testing.T) {
	s := &scripted{name: "echo", features: 2, classes: 64}
	reg, key := reg1(s)
	e, err := New(reg, Options{MaxBatch: 8, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	rows := [][]float64{{5, 0}, {1, 2, 3}, {7, 0}, nil}
	got, err := e.LocalizeBatch(nil, key, rows)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{1, 3} {
		if got[i].Err == nil {
			t.Fatalf("wrong-width row %d did not fail", i)
		}
	}
	for _, i := range []int{0, 2} {
		if got[i].Err != nil {
			t.Fatalf("valid row %d failed alongside a bad row: %v", i, got[i].Err)
		}
		if got[i].Class != int(rows[i][0]) {
			t.Fatalf("row %d = %d, want %d", i, got[i].Class, int(rows[i][0]))
		}
	}

	// Empty batch and all-invalid batch are answered without touching a lane.
	before := len(s.sizes())
	if got, err := e.LocalizeBatch(nil, key, nil); err != nil || len(got) != 0 {
		t.Fatalf("empty batch = (%v, %v)", got, err)
	}
	if got, err := e.LocalizeBatch(nil, key, [][]float64{{1}}); err != nil || got[0].Err == nil {
		t.Fatalf("all-invalid batch = (%v, %v)", got, err)
	}
	if calls := len(s.sizes()); calls != before {
		t.Fatalf("degenerate batches dispatched %d model calls", calls-before)
	}

	// Unknown key is a call-level error, like Localize.
	if _, err := e.LocalizeBatch(nil, localizer.Key{Building: 99, Backend: "echo"}, rows); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("unknown key = %v", err)
	}
}

// TestLocalizeBatchOversized: a batch larger than MaxBatch still dispatches
// as one oversized model call rather than being split or rejected.
func TestLocalizeBatchOversized(t *testing.T) {
	s := &scripted{name: "echo", features: 1, classes: 256}
	reg, key := reg1(s)
	e, err := New(reg, Options{MaxBatch: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	rows := make([][]float64, 19)
	for i := range rows {
		rows[i] = []float64{float64(i)}
	}
	got, err := e.LocalizeBatch(nil, key, rows)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range got {
		if g.Err != nil || g.Class != i {
			t.Fatalf("row %d = %+v", i, g)
		}
	}
	sizes := s.sizes()
	if len(sizes) != 1 || sizes[0] != len(rows) {
		t.Fatalf("oversized batch dispatched as %v, want one call of %d", sizes, len(rows))
	}
}

// TestRouteBatchMixed: floor-classified batch routing with one row that
// misroutes — classes follow each row's own floor, the misrouted row fails
// with ErrMisroute, every other row is unaffected, and the misroute counter
// advances by exactly one.
func TestRouteBatchMixed(t *testing.T) {
	// Classifier has THREE classes but only floors 0 and 1 are registered:
	// feature 0 == 2 misroutes.
	fc := &scripted{name: "floor", features: 2, classes: 3}
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
	e, err := New(reg, Options{MaxBatch: 8, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	rows := [][]float64{{0, 11}, {1, 22}, {2, 33}, {0, 44}, {1, 55}}
	got, err := e.RouteBatch(nil, 3, "pos", rows)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range got {
		floor := int(rows[i][0])
		if floor == 2 {
			if !errors.Is(g.Err, ErrMisroute) {
				t.Fatalf("misrouting row %d = %+v, want ErrMisroute", i, g)
			}
			continue
		}
		if g.Err != nil {
			t.Fatalf("row %d failed alongside the misroute: %v", i, g.Err)
		}
		if g.Floor != floor || g.Class != floor || g.Backend != "pos" {
			t.Fatalf("row %d = %+v, want floor %d", i, g, floor)
		}
	}
	if n := e.Stats().Misroutes; n != 1 {
		t.Fatalf("Misroutes = %d, want 1", n)
	}

	// Matches the per-row results of Route on the well-routed rows.
	for _, i := range []int{0, 1, 3, 4} {
		res, err := e.Route(nil, 3, "pos", rows[i])
		if err != nil {
			t.Fatal(err)
		}
		if res.Floor != got[i].Floor || res.Class != got[i].Class {
			t.Fatalf("row %d: Route = %+v, RouteBatch = %+v", i, res, got[i])
		}
	}
}

// TestRouteBatchShadowSampling: routed batch rows feed the candidate's
// shadow lane on the same every-Nth cadence as singles, so batch clients
// keep earning A/B evidence.
func TestRouteBatchShadowSampling(t *testing.T) {
	live := &scripted{name: "pos", features: 2, classes: 64}
	reg := localizer.NewRegistry()
	key := localizer.Key{Building: 7, Floor: 0, Backend: "pos"}
	if _, err := reg.Register(key, live); err != nil {
		t.Fatal(err)
	}
	e, err := New(reg, Options{MaxBatch: 8, Workers: 2, ABFraction: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	agree := localizer.Wrap("cand", 2, 64, nil, func(dst []int, x *mat.Matrix) []int {
		if dst == nil {
			dst = make([]int, x.Rows)
		}
		for i := 0; i < x.Rows; i++ {
			dst[i] = int(x.Row(i)[0])
		}
		return dst
	})
	if _, err := reg.Stage(key, agree); err != nil {
		t.Fatal(err)
	}

	const n = 16
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = []float64{float64(i), 0}
	}
	got, err := e.RouteBatch(nil, 7, "pos", rows)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range got {
		if g.Err != nil || g.Class != i {
			t.Fatalf("row %d = %+v", i, g)
		}
	}
	st := waitABRows(t, e, key, n/2)
	if st.Sampled != n/2 || st.Agree != st.Rows {
		t.Fatalf("shadow sampled %d (agree %d/%d), want %d sampled all agreeing", st.Sampled, st.Agree, st.Rows, n/2)
	}
}

// TestBatchConcurrentWithSingles hammers mixed batch and single traffic on
// one lane under -race: every caller gets its own rows back.
func TestBatchConcurrentWithSingles(t *testing.T) {
	s := &scripted{name: "echo", features: 1, classes: 1024}
	reg, key := reg1(s)
	e, err := New(reg, Options{MaxBatch: 8, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := g * 100
			if g%2 == 0 {
				rows := make([][]float64, 7)
				for i := range rows {
					rows[i] = []float64{float64(base + i)}
				}
				for iter := 0; iter < 5; iter++ {
					got, err := e.LocalizeBatch(context.Background(), key, rows)
					if err != nil {
						errs <- err
						return
					}
					for i, r := range got {
						if r.Err != nil || r.Class != base+i {
							errs <- errors.New("batch row answered with another caller's result")
							return
						}
					}
				}
				return
			}
			for iter := 0; iter < 35; iter++ {
				res, err := e.Localize(context.Background(), key, []float64{float64(base + iter)})
				if err != nil {
					errs <- err
					return
				}
				if res.Class != base+iter {
					errs <- errors.New("single answered with another caller's result")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
