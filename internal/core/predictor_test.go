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
	x := mat.New(97, numAPs) // odd row count exercises the kernels' row tails
	for i := range x.Data {
		x.Data[i] = rng.Float64()
	}
	return m, x
}

// TestPredictorMatchesPredict: a held handle and the pooled model entry
// points must agree, batched and row by row.
func TestPredictorMatchesPredict(t *testing.T) {
	m, x := syntheticModel(t, 12, 5, 40)
	want := m.Predict(x)

	p := m.Predictor()
	if got := p.PredictBatchInto(nil, x); !equalInts(got, want) {
		t.Fatalf("PredictBatchInto diverged from Predict:\n got %v\nwant %v", got, want)
	}
	dst := make([]int, x.Rows)
	if got := m.PredictBatchInto(dst, x); !equalInts(got, want) {
		t.Fatalf("Model.PredictBatchInto diverged from Predict:\n got %v\nwant %v", got, want)
	}

	// Row-by-row single queries must agree with the batch.
	single := m.Predictor()
	out := make([]int, 1)
	for i := 0; i < x.Rows; i++ {
		row := mat.FromSlice(1, x.Cols, x.Row(i))
		if single.PredictBatchInto(out, row); out[0] != want[i] {
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

// TestPredictorZeroAllocSteadyState: after warm-up, the pooled path that
// localizer.FromCore serves (Model.PredictBatchInto) must not allocate at
// any serving precision, for one row and for engine- and wire-sized batches,
// with the kernels free to use two workers: inference never spawns a
// goroutine, so the pin holds at any -cpu.
func TestPredictorZeroAllocSteadyState(t *testing.T) {
	defer mat.SetParallelism(mat.SetParallelism(2))
	for _, prec := range []mat.Precision{mat.PrecFloat64, mat.PrecFloat32, mat.PrecInt8} {
		if raceEnabled && prec != mat.PrecFloat64 {
			continue // the float32 and int8 kernels draw pooled row scratch
		}
		m, x := servedShapeModel(t, prec)
		predict := m.PredictBatchInto
		if raceEnabled {
			// The race detector drops sync.Pool items by design, so hold
			// one handle instead of drawing from the model's pool.
			predict = m.Predictor().PredictBatchInto
		}
		for _, rows := range []int{1, 32, 64} {
			q := mat.FromSlice(rows, x.Cols, x.Data[:rows*x.Cols])
			dst := make([]int, rows)
			predict(dst, q) // warm the workspace
			if allocs := testing.AllocsPerRun(50, func() {
				predict(dst, q)
			}); allocs != 0 {
				t.Fatalf("%s r%d: steady-state PredictBatchInto allocates %.0f objects/op, want 0", prec, rows, allocs)
			}
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
	p.PredictBatchInto(make([]int, 3), x)
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
	for _, rows := range []int{1, 64, maxRetainedRows} {
		q := mat.FromSlice(rows, big.Cols, big.Data[:rows*big.Cols])
		dst := make([]int, rows)
		p.PredictBatchInto(dst, q)
		if allocs := testing.AllocsPerRun(20, func() { p.PredictBatchInto(dst, q) }); allocs != 0 {
			t.Fatalf("steady-state %d-row PredictBatchInto allocates %.0f objects/op, want 0", rows, allocs)
		}
	}

	before := heap()
	got := p.PredictBatchInto(nil, big)
	after := heap()
	if want := m.Predict(big); !equalInts(got, want) {
		t.Fatal("oversized PredictBatchInto diverged from Predict")
	}
	if grew := int64(after) - int64(before); grew > 4<<20 {
		t.Fatalf("predictor retains %d MB after a %d-row call, want its workspace dropped", grew>>20, bigRows)
	}
	runtime.KeepAlive(p)
}

// TestPredictRowsAreIndependent is a property test at every serving
// precision: a row's class lies in [0, NumRPs) and does not depend on the
// batch around it — the same alone at r1 as at every position of a 64-row
// batch of other fingerprints, whatever tile or tail that position lands
// in. The probes include the in-range edge rows a hostile or broken client
// can send: all zeros (nothing heard) and all-equal rows.
func TestPredictRowsAreIndependent(t *testing.T) {
	const rows, stride = 64, 9 // probe i sits at (shift + i·stride) mod 64
	shifts := make([]int, rows)
	for i := range shifts {
		shifts[i] = i
	}
	if testing.Short() {
		shifts = []int{0, 1, 3, 4, 5, 31, 63}
	}
	for _, prec := range []mat.Precision{mat.PrecFloat64, mat.PrecFloat32, mat.PrecInt8} {
		m, x := servedShapeModel(t, prec)
		// Untrained attention is nearly uniform, so every row would get the
		// same class and the property would hold vacuously. Sharpened
		// query/key projections make a row's class follow its nearest
		// memory rows.
		m.wq.W.ScaleInPlace(8)
		m.wk.W.ScaleInPlace(8)
		m.RefreshMemoryKeys()
		classes := map[int]bool{}
		for _, c := range m.Predict(x) {
			classes[c] = true
		}
		if len(classes) < 8 {
			t.Fatalf("%s: only %d distinct classes over %d rows; the probes would test nothing", prec, len(classes), x.Rows)
		}
		rng := rand.New(rand.NewSource(31))
		probes := [][]float64{make([]float64, x.Cols)}
		for _, v := range []float64{0.25, 0.5, 1} {
			row := make([]float64, x.Cols)
			for j := range row {
				row[j] = v
			}
			probes = append(probes, row)
		}
		for range 3 {
			row := make([]float64, x.Cols)
			for j := range row {
				if rng.Intn(3) > 0 {
					row[j] = rng.Float64()
				}
			}
			probes = append(probes, row)
		}
		alone := make([]int, len(probes))
		for i, probe := range probes {
			alone[i] = m.PredictBatchInto(nil, mat.FromSlice(1, len(probe), probe))[0]
			if alone[i] < 0 || alone[i] >= m.Cfg.NumRPs {
				t.Fatalf("%s probe %d: class %d outside [0, %d)", prec, i, alone[i], m.Cfg.NumRPs)
			}
		}
		batch := mat.New(rows, x.Cols)
		dst := make([]int, rows)
		for _, shift := range shifts {
			copy(batch.Data, x.Data[:rows*x.Cols])
			for i, probe := range probes {
				copy(batch.Row((shift+i*stride)%rows), probe)
			}
			m.PredictBatchInto(dst, batch)
			for i := range probes {
				if pos := (shift + i*stride) % rows; dst[pos] != alone[i] {
					t.Fatalf("%s probe %d: class %d at r64 position %d, %d alone", prec, i, dst[pos], pos, alone[i])
				}
			}
		}
	}
}
