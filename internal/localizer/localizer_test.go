package localizer

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"calloc/internal/baselines"
	"calloc/internal/bayes"
	"calloc/internal/core"
	"calloc/internal/fingerprint"
	"calloc/internal/gbdt"
	"calloc/internal/gp"
	"calloc/internal/knn"
	"calloc/internal/mat"
)

const (
	testAPs     = 12
	testClasses = 4
)

// fixture builds a small synthetic fingerprint problem every backend fits.
func fixture(t testing.TB) (x *mat.Matrix, labels []int, q *mat.Matrix) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	n := 60
	x = mat.New(n, testAPs)
	labels = make([]int, n)
	for i := 0; i < n; i++ {
		c := i % testClasses
		labels[i] = c
		for j := 0; j < testAPs; j++ {
			x.Set(i, j, 0.2*float64(c)+rng.Float64()*0.1)
		}
	}
	q = mat.New(15, testAPs)
	for i := range q.Data {
		q.Data[i] = rng.Float64() * 0.8
	}
	return x, labels, q
}

// TestAdapterEquivalence is the cross-backend contract test: every registry
// adapter must return exactly the labels of its wrapped estimator's direct
// Predict, report consistent metadata, and expose the estimator via Unwrap.
func TestAdapterEquivalence(t *testing.T) {
	x, labels, q := fixture(t)

	coreModel := func() *core.Model {
		cfg := core.DefaultConfig(testAPs, testClasses)
		cfg.EmbedDim, cfg.AttnDim = 16, 8
		m, err := core.NewModel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		db := make([]fingerprint.Sample, x.Rows)
		for i := range db {
			db[i] = fingerprint.Sample{RSS: append([]float64(nil), x.Row(i)...), RP: labels[i]}
		}
		if err := m.SetMemory(db); err != nil {
			t.Fatal(err)
		}
		return m
	}()

	cases := []struct {
		backend string
		loc     Localizer
		direct  func(*mat.Matrix) []int
	}{
		{
			backend: "core",
			loc:     FromCore("CALLOC", coreModel),
			direct:  coreModel.Predict,
		},
		{
			backend: "knn",
			loc: func() Localizer {
				c, err := knn.New(x, labels, 3)
				if err != nil {
					t.Fatal(err)
				}
				return FromKNN("KNN", c)
			}(),
			direct: nil, // filled below from Unwrap
		},
		{
			backend: "gp",
			loc: func() Localizer {
				c, err := gp.Fit(x, labels, testClasses, gp.DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				return FromGP("GPC", c)
			}(),
		},
		{
			backend: "gbdt",
			loc: func() Localizer {
				c, err := gbdt.Fit(x, labels, testClasses, gbdt.DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				return FromGBDT("GBDT", c)
			}(),
		},
		{
			backend: "bayes",
			loc: func() Localizer {
				c, err := bayes.Fit(x, labels, testClasses)
				if err != nil {
					t.Fatal(err)
				}
				return FromBayes("Bayes", c)
			}(),
		},
		{
			backend: "baseline-dnn",
			loc: func() Localizer {
				cfg := baselines.DefaultDNNConfig()
				cfg.Epochs = 30
				d, err := baselines.FitDNN("DNN", x, labels, testClasses, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return FromBaseline(d, testAPs, testClasses)
			}(),
		},
		{
			backend: "baseline-anvil",
			loc: func() Localizer {
				cfg := baselines.DefaultANVILConfig()
				cfg.Epochs = 20
				a, err := baselines.FitANVIL(x, labels, testClasses, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return FromBaseline(a, testAPs, testClasses)
			}(),
		},
	}

	for _, tc := range cases {
		t.Run(tc.backend, func(t *testing.T) {
			direct := tc.direct
			if direct == nil {
				// Every estimator in this repo exposes Predict; reach it
				// through the adapter's Unwrap so the test also proves the
				// unwrapping path the attack layer depends on.
				est, ok := Unwrap(tc.loc).(interface{ Predict(*mat.Matrix) []int })
				if !ok {
					t.Fatalf("%s: Unwrap did not yield a predictor", tc.backend)
				}
				direct = est.Predict
			}
			want := direct(q)
			dst := make([]int, q.Rows)
			for pass := 0; pass < 2; pass++ { // reused dst, pooled scratch
				got := tc.loc.PredictInto(dst, q)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("pass %d row %d: adapter %d, direct %d", pass, i, got[i], want[i])
					}
				}
			}
			if got := tc.loc.PredictInto(nil, q); len(got) != q.Rows {
				t.Fatalf("nil dst: got %d predictions, want %d", len(got), q.Rows)
			}
			if tc.loc.InputDim() != testAPs || tc.loc.NumClasses() != testClasses {
				t.Fatalf("metadata (%d, %d), want (%d, %d)",
					tc.loc.InputDim(), tc.loc.NumClasses(), testAPs, testClasses)
			}
			if tc.loc.Name() == "" {
				t.Fatal("empty name")
			}
		})
	}
}

func TestRegistryRegisterGetSwap(t *testing.T) {
	x, labels, q := fixture(t)
	c1, err := knn.New(x, labels, 3)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := knn.New(x, labels, 5)
	if err != nil {
		t.Fatal(err)
	}
	l1, l2 := FromKNN("KNN", c1), FromKNN("KNN", c2)

	r := NewRegistry()
	key := Key{Building: 2, Floor: 1, Backend: "knn"}
	if _, ok := r.Get(key); ok {
		t.Fatal("empty registry returned a snapshot")
	}
	v, err := r.Register(key, l1)
	if err != nil || v != 1 {
		t.Fatalf("Register = (%d, %v), want (1, nil)", v, err)
	}
	if _, err := r.Register(key, l2); err == nil {
		t.Fatal("double Register accepted — replacement must go through Swap")
	}
	snap, ok := r.Get(key)
	if !ok || snap.Version != 1 || snap.Localizer != l1 {
		t.Fatalf("Get after Register = (%+v, %v)", snap, ok)
	}

	v, err = r.Swap(key, l2)
	if err != nil || v != 2 {
		t.Fatalf("Swap = (%d, %v), want (2, nil)", v, err)
	}
	snap2, _ := r.Get(key)
	if snap2.Version != 2 || snap2.Localizer != l2 {
		t.Fatalf("Get after Swap = %+v", snap2)
	}
	// The old snapshot stays usable — in-flight batches rely on this.
	if got := snap.Localizer.PredictInto(nil, q); len(got) != q.Rows {
		t.Fatal("pre-swap snapshot unusable")
	}

	if _, err := r.Swap(Key{Building: 9, Floor: 0, Backend: "knn"}, l1); err == nil {
		t.Fatal("Swap of unregistered key accepted")
	}
}

func TestRegistrySwapEnforcesShapeStability(t *testing.T) {
	predict := func(dst []int, x *mat.Matrix) []int {
		if dst == nil {
			dst = make([]int, x.Rows)
		}
		return dst
	}
	r := NewRegistry()
	key := Key{Building: 1, Floor: 0, Backend: "a"}
	if _, err := r.Register(key, Wrap("a", 8, 4, nil, predict)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Swap(key, Wrap("a", 9, 4, nil, predict)); err == nil ||
		!strings.Contains(err.Error(), "input dim") {
		t.Fatalf("input-dim change accepted: %v", err)
	}
	if _, err := r.Swap(key, Wrap("a", 8, 5, nil, predict)); err == nil ||
		!strings.Contains(err.Error(), "label space") {
		t.Fatalf("label-space change accepted: %v", err)
	}
	if _, err := r.Register(Key{Building: 1, Floor: 0, Backend: ""}, Wrap("a", 8, 4, nil, predict)); err == nil {
		t.Fatal("empty backend accepted")
	}
	if _, err := r.Register(Key{Building: 1, Floor: 1, Backend: "a"}, Wrap("a", 0, 4, nil, predict)); err == nil {
		t.Fatal("zero input dim accepted")
	}
	if _, err := r.Register(Key{Building: 1, Floor: 1, Backend: "a"}, nil); err == nil {
		t.Fatal("nil localizer accepted")
	}
}

func TestRegistryListAndFloors(t *testing.T) {
	predict := func(dst []int, x *mat.Matrix) []int {
		if dst == nil {
			dst = make([]int, x.Rows)
		}
		return dst
	}
	r := NewRegistry()
	keys := []Key{
		{Building: 2, Floor: 0, Backend: "knn"},
		{Building: 1, Floor: 1, Backend: "calloc"},
		{Building: 1, Floor: 0, Backend: "calloc"},
		FloorKey(1),
	}
	for _, k := range keys {
		if _, err := r.Register(k, Wrap(k.Backend, 8, 4, nil, predict)); err != nil {
			t.Fatal(err)
		}
	}
	list := r.List()
	if len(list) != 4 || r.Len() != 4 {
		t.Fatalf("List returned %d entries, Len %d, want 4", len(list), r.Len())
	}
	// Ordered by building, then floor (classifier's -1 first), then backend.
	want := []Key{FloorKey(1), keys[2], keys[1], keys[0]}
	for i, info := range list {
		if info.Key != want[i] {
			t.Fatalf("List[%d] = %+v, want key %+v", i, info, want[i])
		}
		if info.InputDim != 8 || info.NumClasses != 4 || info.Version != 1 {
			t.Fatalf("List[%d] metadata %+v", i, info)
		}
	}
	floors := r.Floors(1, "calloc")
	if len(floors) != 2 || floors[0] != 0 || floors[1] != 1 {
		t.Fatalf("Floors(1, calloc) = %v, want [0 1]", floors)
	}
	if got := r.Floors(1, "knn"); len(got) != 0 {
		t.Fatalf("Floors(1, knn) = %v, want empty", got)
	}
}

// TestConcurrentGetAndSwap hammers lock-free reads against swaps and
// registrations under -race: readers must always observe a complete
// snapshot with a monotonically reachable version.
func TestConcurrentGetAndSwap(t *testing.T) {
	x, labels, q := fixture(t)
	fit := func(k int) Localizer {
		c, err := knn.New(x, labels, k)
		if err != nil {
			t.Fatal(err)
		}
		return FromKNN("KNN", c)
	}
	r := NewRegistry()
	key := Key{Building: 1, Floor: 0, Backend: "knn"}
	if _, err := r.Register(key, fit(3)); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			if _, err := r.Swap(key, fit(3+i%3)); err != nil {
				t.Errorf("swap %d: %v", i, err)
				return
			}
			if i%2 == 0 {
				other := Key{Building: 1, Floor: 1 + i/2, Backend: "tmp"}
				if _, err := r.Register(other, fit(3)); err != nil {
					t.Errorf("register %d: %v", i, err)
					return
				}
			}
		}
	}()
	var lastV uint64
	for {
		select {
		case <-done:
			if snap, ok := r.Get(key); !ok || snap.Version != 201 {
				t.Fatalf("final version %d, want 201", snap.Version)
			}
			return
		default:
		}
		snap, ok := r.Get(key)
		if !ok {
			t.Fatal("key vanished during swaps")
		}
		if snap.Version < lastV {
			t.Fatalf("version went backwards: %d after %d", snap.Version, lastV)
		}
		lastV = snap.Version
		if got := snap.Localizer.PredictInto(nil, q); len(got) != q.Rows {
			t.Fatal("snapshot localizer broken")
		}
	}
}

// stubLoc builds a trivial localizer of the given shape for version-lineage
// tests.
func stubLoc(name string, inputDim, classes int) Localizer {
	return Wrap(name, inputDim, classes, nil, func(dst []int, x *mat.Matrix) []int {
		if dst == nil {
			dst = make([]int, x.Rows)
		}
		return dst
	})
}

// TestRegistrySwapIfAndRollback walks the promotion lineage: SwapIf swaps
// only at the expected live version and retains the displaced snapshot,
// Rollback restores it as a new version exactly once, and a plain Swap drops
// the retained snapshot so a rollback can never stomp a manual push.
func TestRegistrySwapIfAndRollback(t *testing.T) {
	r := NewRegistry()
	key := Key{Building: 1, Floor: 0, Backend: "stub"}
	live := stubLoc("live", testAPs, testClasses)
	if _, err := r.Register(key, live); err != nil {
		t.Fatal(err)
	}
	if _, err := r.SwapIf(Key{Building: 9, Floor: 0, Backend: "stub"}, live, 1); err == nil {
		t.Fatal("SwapIf of an unregistered key accepted")
	}
	if _, err := r.SwapIf(key, stubLoc("wide", testAPs+1, testClasses), 1); err == nil ||
		!strings.Contains(err.Error(), "input dim") {
		t.Fatalf("SwapIf changing the input dim = %v", err)
	}
	if _, err := r.SwapIf(key, stubLoc("classes", testAPs, testClasses+1), 1); err == nil ||
		!strings.Contains(err.Error(), "label space") {
		t.Fatalf("SwapIf changing the label space = %v", err)
	}
	if _, err := r.Rollback(key); !errors.Is(err, ErrNoPrevious) {
		t.Fatalf("Rollback with nothing retained = %v, want ErrNoPrevious", err)
	}

	// A stale expectation fails and changes nothing.
	cand := stubLoc("cand", testAPs, testClasses)
	if _, err := r.SwapIf(key, cand, 2); !errors.Is(err, ErrVersionConflict) {
		t.Fatalf("SwapIf with a stale version = %v, want ErrVersionConflict", err)
	}
	if snap, _ := r.Get(key); snap.Version != 1 || snap.Localizer != live {
		t.Fatalf("failed SwapIf moved the live slot: %+v", snap)
	}

	v, err := r.SwapIf(key, cand, 1)
	if err != nil || v != 2 {
		t.Fatalf("SwapIf = (%d, %v), want (2, nil)", v, err)
	}
	if p, ok := r.Previous(key); !ok || p.Version != 1 || p.Localizer != live {
		t.Fatalf("Previous after SwapIf = (%+v, %v)", p, ok)
	}
	v, err = r.Rollback(key)
	if err != nil || v != 3 {
		t.Fatalf("Rollback = (%d, %v), want (3, nil)", v, err)
	}
	if snap, _ := r.Get(key); snap.Version != 3 || snap.Localizer != live {
		t.Fatalf("live after Rollback = %+v", snap)
	}
	if _, ok := r.Previous(key); ok {
		t.Fatal("previous survived Rollback")
	}
	if _, err := r.Rollback(key); !errors.Is(err, ErrNoPrevious) {
		t.Fatalf("second Rollback = %v, want ErrNoPrevious", err)
	}

	// A plain Swap after a promotion drops the rollback target.
	if _, err := r.SwapIf(key, cand, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Swap(key, stubLoc("manual", testAPs, testClasses)); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Previous(key); ok {
		t.Fatal("Swap kept the previous snapshot")
	}
	if _, err := r.Rollback(key); !errors.Is(err, ErrNoPrevious) {
		t.Fatalf("Rollback after Swap = %v, want ErrNoPrevious", err)
	}
	if _, err := r.SwapIf(key, cand, 4); !errors.Is(err, ErrVersionConflict) {
		t.Fatalf("SwapIf against the version a Swap displaced = %v, want ErrVersionConflict", err)
	}
}
