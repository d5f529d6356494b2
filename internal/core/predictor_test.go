package core

import (
	"math/rand"
	"runtime"
	"testing"

	"calloc/internal/fingerprint"
	"calloc/internal/mat"
	"calloc/internal/nn"
)

// syntheticModel builds an untrained model with synthetic attention memory —
// prediction equivalence and allocation behaviour do not depend on trained
// weights, so tests skip the expensive Train call.
func syntheticModel(t testing.TB, numAPs, numRPs, memory int) (*Model, *mat.Matrix) {
	t.Helper()
	cfg := DefaultConfig(numAPs, numRPs)
	cfg.EmbedDim, cfg.AttnDim = 16, 8
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
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
	x := mat.New(97, numAPs) // odd row count exercises uneven shards
	for i := range x.Data {
		x.Data[i] = rng.Float64()
	}
	return m, x
}

// TestPredictorMatchesPredict: the workspace single-goroutine path, the
// sharded batch path, and the pooled model entry points must agree.
func TestPredictorMatchesPredict(t *testing.T) {
	m, x := syntheticModel(t, 12, 5, 40)
	want := m.Predict(x)

	p := m.Predictor()
	if got := p.PredictInto(nil, x); !equalInts(got, want) {
		t.Fatalf("PredictInto diverged from Predict:\n got %v\nwant %v", got, want)
	}
	dst := make([]int, x.Rows)
	if got := p.PredictBatchInto(dst, x); !equalInts(got, want) {
		t.Fatalf("PredictBatchInto diverged from Predict:\n got %v\nwant %v", got, want)
	}

	// Row-by-row single queries must agree with the batch.
	single := m.Predictor()
	out := make([]int, 1)
	for i := 0; i < x.Rows; i++ {
		row := mat.FromSlice(1, x.Cols, x.Row(i))
		if single.PredictInto(out, row); out[0] != want[i] {
			t.Fatalf("single-row predict %d = %d, want %d", i, out[0], want[i])
		}
	}
}

// TestPredictorReusedAcrossBatchSizes: workspace buffers must resize
// correctly when the same handle sees varying batch shapes.
func TestPredictorReusedAcrossBatchSizes(t *testing.T) {
	m, x := syntheticModel(t, 12, 5, 40)
	p := m.Predictor()
	for _, rows := range []int{1, 33, 1, 97, 16} {
		sub := mat.FromSlice(rows, x.Cols, x.Data[:rows*x.Cols])
		want := m.Predict(sub)
		if got := p.PredictBatchInto(nil, sub); !equalInts(got, want) {
			t.Fatalf("rows=%d: PredictBatchInto diverged", rows)
		}
	}
}

// TestPredictorZeroAllocSteadyState is the tentpole acceptance check at unit
// scope: after warm-up, the single-query PredictInto path must not allocate,
// at any serving precision.
func TestPredictorZeroAllocSteadyState(t *testing.T) {
	for _, prec := range []mat.Precision{mat.PrecFloat64, mat.PrecFloat32, mat.PrecInt8} {
		if raceEnabled && prec != mat.PrecFloat64 {
			continue // the float32 and int8 kernels draw pooled row scratch
		}
		m, x := servedShapeModel(t, prec)
		p := m.Predictor()
		q := mat.FromSlice(1, x.Cols, x.Row(0))
		dst := make([]int, 1)
		p.PredictInto(dst, q) // warm the workspace
		if allocs := testing.AllocsPerRun(50, func() {
			p.PredictInto(dst, q)
		}); allocs != 0 {
			t.Fatalf("%s: steady-state PredictInto allocates %.0f objects/op, want 0", prec, allocs)
		}
	}
}

// TestMixOneHotMatchesProduct: the scatter equals the GEMM against the
// one-hot matrix — exactly at float64 when every class has at most one
// memory row, and bit for bit against the float32 rounding sequence.
func TestMixOneHotMatchesProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	w := mat.New(6, 9)
	for i := range w.Data {
		w.Data[i] = rng.NormFloat64()
	}
	labels := []int{3, 0, 5, 1, 8, 2, 7, 4, 6} // a permutation: one row per class
	got := mixOneHotInto(mat.New(6, 9), w, labels, false)
	for i, v := range mat.Mul(w, nn.OneHot(labels, 9)).Data {
		if got.Data[i] != v {
			t.Fatalf("permutation: element %d = %g, want %g", i, got.Data[i], v)
		}
	}

	labels = []int{2, 2, 0, 1, 2, 0, 1, 1, 2}
	got = mixOneHotInto(mat.New(6, 3), w, labels, true)
	for r := 0; r < w.Rows; r++ {
		var acc [3]float32
		for m, l := range labels {
			acc[l] += float32(w.At(r, m))
		}
		for j, v := range acc {
			if got.At(r, j) != float64(v) {
				t.Fatalf("row %d class %d: %v, want float32 sum %v", r, j, got.At(r, j), v)
			}
		}
	}
	if allocs := testing.AllocsPerRun(50, func() { mixOneHotInto(got, w, labels, true) }); allocs != 0 {
		t.Fatalf("mixOneHotInto allocates %.0f objects/op, want 0", allocs)
	}
}

// TestPredictorDstValidation: a wrong-length destination is a programming
// error and must panic rather than silently truncate.
func TestPredictorDstValidation(t *testing.T) {
	m, x := syntheticModel(t, 12, 5, 40)
	p := m.Predictor()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for short destination")
		}
	}()
	p.PredictInto(make([]int, 3), x)
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}

// TestPredictorDropsOversizedWorkspace: one evaluation-sized call must not
// pin its buffers (rows × memory attention scores above all) in the handle
// for the rest of its life, while calls at serving sizes keep theirs and
// stay allocation-free.
func TestPredictorDropsOversizedWorkspace(t *testing.T) {
	const memory, bigRows = 1024, 2048 // scores buffer alone: 2048×1024×8 B = 16 MB
	m, x := syntheticModel(t, 12, 5, memory)
	p := m.Predictor()
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	big := mat.New(bigRows, x.Cols)
	for i := range big.Data {
		big.Data[i] = x.Data[i%len(x.Data)]
	}
	// Inline kernels: a sharded product allocates its goroutines' closures,
	// which is not what this test is about.
	defer mat.SetParallelism(mat.SetParallelism(1))
	for _, rows := range []int{1, 64, maxRetainedRows} {
		q := mat.FromSlice(rows, big.Cols, big.Data[:rows*big.Cols])
		dst := make([]int, rows)
		p.PredictInto(dst, q)
		if allocs := testing.AllocsPerRun(20, func() { p.PredictInto(dst, q) }); allocs != 0 {
			t.Fatalf("steady-state %d-row PredictInto allocates %.0f objects/op, want 0", rows, allocs)
		}
	}

	before := heap()
	got := p.PredictInto(nil, big)
	after := heap()
	if want := m.PredictBatch(big); !equalInts(got, want) {
		t.Fatal("oversized PredictInto diverged from PredictBatch")
	}
	if grew := int64(after) - int64(before); grew > 4<<20 {
		t.Fatalf("predictor retains %d MB after a %d-row call, want its workspace dropped", grew>>20, bigRows)
	}
	runtime.KeepAlive(p)
}
