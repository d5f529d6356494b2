// Package calloc_test holds the repository-level benchmark harness:
// ablation benches for the design choices called out in DESIGN.md and
// micro-benchmarks of the performance-critical paths. The ablations train
// small model variants so `go test -bench=Ablation` finishes in minutes on
// one core; their custom metrics carry the attacked error. The paper's
// tables and figures are produced by `go run ./cmd/calloc-eval`.
package calloc_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"calloc/internal/attack"
	"calloc/internal/cluster"
	"calloc/internal/core"
	"calloc/internal/curriculum"
	"calloc/internal/device"
	"calloc/internal/fingerprint"
	"calloc/internal/floorplan"
	"calloc/internal/localizer"
	"calloc/internal/mat"
	"calloc/internal/node"
	"calloc/internal/serve"
)

// --- Ablation benches (design choices called out in DESIGN.md) ---

// benchDataset builds the shared small dataset for ablations.
var (
	ablOnce sync.Once
	ablDS   *fingerprint.Dataset
)

func ablationDataset(b *testing.B) *fingerprint.Dataset {
	b.Helper()
	ablOnce.Do(func() {
		spec := floorplan.Spec{
			ID: 90, Name: "Ablation", VisibleAPs: 24, PathLengthM: 12,
			Characteristics: "bench", Model: floorplan.Registry()[2].Model,
		}
		bld := floorplan.Build(spec, 1)
		ds, err := fingerprint.Collect(bld, device.Registry(), fingerprint.DefaultCollectConfig())
		if err != nil {
			b.Fatal(err)
		}
		ablDS = ds
	})
	return ablDS
}

// ablationError trains a model variant and reports its FGSM-attacked error.
func ablationError(b *testing.B, mutate func(*core.Config, *core.TrainConfig)) float64 {
	b.Helper()
	ds := ablationDataset(b)
	cfg := core.DefaultConfig(ds.NumAPs, ds.NumRPs)
	cfg.EmbedDim, cfg.AttnDim = 32, 16
	tc := core.DefaultTrainConfig()
	tc.Lessons = curriculum.Schedule(4, 100, 0.1)
	tc.EpochsPerLesson = 15
	mutate(&cfg, &tc)
	m, err := core.NewModel(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := m.Train(ds.Train, tc); err != nil {
		b.Fatal(err)
	}
	var total float64
	var n int
	for _, dev := range []string{"OP3", "MOTO"} {
		x := fingerprint.X(ds.Test[dev])
		labels := fingerprint.Labels(ds.Test[dev])
		adv := attack.Craft(attack.FGSM, m, x, labels,
			attack.Config{Epsilon: 0.3, PhiPercent: 50, Seed: 7})
		for i, p := range m.Predict(adv) {
			total += ds.ErrorMeters(p, labels[i])
			n++
		}
	}
	return total / float64(n)
}

// BenchmarkAblationHyperspaceMSE compares the hyperspace-consistency loss
// weights λ ∈ {0, 0.02 (default), 0.5}: the calibration story behind
// DESIGN.md's λ choice.
func BenchmarkAblationHyperspaceMSE(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		off := ablationError(b, func(c *core.Config, _ *core.TrainConfig) { c.HyperspaceLambda = 0 })
		def := ablationError(b, func(c *core.Config, _ *core.TrainConfig) { c.HyperspaceLambda = 0.02 })
		strong := ablationError(b, func(c *core.Config, _ *core.TrainConfig) { c.HyperspaceLambda = 0.5 })
		b.ReportMetric(off, "lambda0_error_m")
		b.ReportMetric(def, "lambda002_error_m")
		b.ReportMetric(strong, "lambda05_error_m")
	}
}

// BenchmarkAblationAdaptive compares the adaptive revert-and-ease mechanism
// (§IV.D) against a static curriculum (no reverts).
func BenchmarkAblationAdaptive(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		adaptive := ablationError(b, func(_ *core.Config, t *core.TrainConfig) { t.Patience = 3 })
		static := ablationError(b, func(_ *core.Config, t *core.TrainConfig) {
			t.Patience = 1 << 20 // monitor never fires
		})
		b.ReportMetric(adaptive, "adaptive_error_m")
		b.ReportMetric(static, "static_error_m")
	}
}

// BenchmarkAblationMemorySize compares full-database attention memory with
// per-class subsampling, the deployment memory/accuracy trade-off.
func BenchmarkAblationMemorySize(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		full := ablationError(b, func(c *core.Config, _ *core.TrainConfig) { c.MemoryPerClass = 0 })
		two := ablationError(b, func(c *core.Config, _ *core.TrainConfig) { c.MemoryPerClass = 2 })
		one := ablationError(b, func(c *core.Config, _ *core.TrainConfig) { c.MemoryPerClass = 1 })
		b.ReportMetric(full, "mem_full_error_m")
		b.ReportMetric(two, "mem2_error_m")
		b.ReportMetric(one, "mem1_error_m")
	}
}

// --- Micro-benchmarks of performance-critical paths ---

func trainedBenchModel(b *testing.B) (*core.Model, *fingerprint.Dataset) {
	b.Helper()
	ds := ablationDataset(b)
	cfg := core.DefaultConfig(ds.NumAPs, ds.NumRPs)
	cfg.EmbedDim, cfg.AttnDim = 32, 16
	m, err := core.NewModel(cfg)
	if err != nil {
		b.Fatal(err)
	}
	tc := core.DefaultTrainConfig()
	tc.Lessons = curriculum.Schedule(3, 100, 0.1)
	tc.EpochsPerLesson = 10
	if _, err := m.Train(ds.Train, tc); err != nil {
		b.Fatal(err)
	}
	return m, ds
}

// BenchmarkCALLOCInference measures single-fingerprint localization latency,
// the figure that matters for the paper's mobile-deployment claim.
func BenchmarkCALLOCInference(b *testing.B) {
	m, ds := trainedBenchModel(b)
	x := fingerprint.X(ds.Test["OP3"][:1])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(x)
	}
}

// BenchmarkFGSMCraft measures single-step attack generation against CALLOC.
func BenchmarkFGSMCraft(b *testing.B) {
	m, ds := trainedBenchModel(b)
	x := fingerprint.X(ds.Test["OP3"])
	labels := fingerprint.Labels(ds.Test["OP3"])
	cfg := attack.Config{Epsilon: 0.3, PhiPercent: 50, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		attack.Craft(attack.FGSM, m, x, labels, cfg)
	}
}

// BenchmarkPGDCraft measures 10-step iterative attack generation.
func BenchmarkPGDCraft(b *testing.B) {
	m, ds := trainedBenchModel(b)
	x := fingerprint.X(ds.Test["OP3"])
	labels := fingerprint.Labels(ds.Test["OP3"])
	cfg := attack.Config{Epsilon: 0.3, PhiPercent: 50, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		attack.Craft(attack.PGD, m, x, labels, cfg)
	}
}

// BenchmarkMatMul measures the dense kernel all models sit on.
func BenchmarkMatMul(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := mat.New(128, 128)
	c := mat.New(128, 128)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
		c.Data[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mat.Mul(a, c)
	}
}

// randDense builds an r×c matrix of standard normals.
func randDense(rng *rand.Rand, r, c int) *mat.Matrix {
	m := mat.New(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// matShapes are representative CALLOC products: batch × AP-count × embedding
// (the embedding layers at paper dimensions), batch × embed × d_k (the
// attention projections), memory × d_k scores, and the 256³ reference shape
// the parallel-speedup acceptance criterion is stated at.
var matShapes = []struct {
	name    string
	m, k, n int
}{
	{"embed_256x165x128", 256, 165, 128},
	{"attnproj_256x128x74", 256, 128, 74},
	{"scores_256x74x512", 256, 74, 512},
	{"square_256x256x256", 256, 256, 256},
}

// benchProducts measures one product kernel sequentially and in parallel at
// every representative shape, with allocation counts.
func benchProducts(b *testing.B, mul func(x, y *mat.Matrix) *mat.Matrix, transposeB bool) {
	for _, sh := range matShapes {
		rng := rand.New(rand.NewSource(2))
		x := randDense(rng, sh.m, sh.k)
		y := randDense(rng, sh.k, sh.n)
		if transposeB {
			y = randDense(rng, sh.n, sh.k)
		}
		for _, par := range []struct {
			name    string
			workers int
		}{{"seq", 1}, {"par", 0}} {
			b.Run(sh.name+"/"+par.name, func(b *testing.B) {
				prev := mat.SetParallelism(par.workers)
				defer mat.SetParallelism(prev)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					mul(x, y)
				}
			})
		}
	}
}

// BenchmarkMatMulShapes: x·y at CALLOC shapes, sequential vs parallel.
func BenchmarkMatMulShapes(b *testing.B) { benchProducts(b, mat.Mul, false) }

// BenchmarkMatMulTShapes: x·yᵀ (attention scores), sequential vs parallel.
func BenchmarkMatMulTShapes(b *testing.B) { benchProducts(b, mat.MulT, true) }

// BenchmarkMatTMulShapes: xᵀ·y (weight gradients), sequential vs parallel.
// TMul contracts over rows, so the operands are built k×m · k×n directly.
func BenchmarkMatTMulShapes(b *testing.B) {
	for _, sh := range matShapes {
		rng := rand.New(rand.NewSource(2))
		x := randDense(rng, sh.k, sh.m)
		y := randDense(rng, sh.k, sh.n)
		for _, par := range []struct {
			name    string
			workers int
		}{{"seq", 1}, {"par", 0}} {
			b.Run(sh.name+"/"+par.name, func(b *testing.B) {
				prev := mat.SetParallelism(par.workers)
				defer mat.SetParallelism(prev)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					mat.TMul(x, y)
				}
			})
		}
	}
}

// BenchmarkPredictBatchInto measures batched localization throughput — the
// serving-path figure — through the pooled model entry point, inline on the
// calling goroutine.
func BenchmarkPredictBatchInto(b *testing.B) {
	m, ds := trainedBenchModel(b)
	var samples []fingerprint.Sample
	for _, dev := range []string{"OP3", "S7", "MOTO"} {
		samples = append(samples, ds.Test[dev]...)
	}
	x := fingerprint.X(samples)
	dst := make([]int, x.Rows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PredictBatchInto(dst, x)
	}
	b.ReportMetric(float64(x.Rows)*float64(b.N)/b.Elapsed().Seconds(), "fingerprints/s")
}

func seriesMean(s []float64) float64 {
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// --- Serving-path benchmarks (PR 2): steady-state allocation behaviour and
// micro-batched concurrent throughput at CALLOC paper shapes. ---

// paperShapeModel builds an untrained model at the paper's dimensions (165
// APs, 61 RPs, d_k=74) with a synthetic attention memory — serving cost
// depends only on shapes, not on trained weights, so benches skip training.
func paperShapeModel(b *testing.B, memory int) *core.Model {
	return paperShapeModelPrec(b, memory, mat.PrecFloat64)
}

// paperShapeModelPrec is paperShapeModel with a serving precision — the
// packed weight and memory snapshots quantize once, activations stay float64.
func paperShapeModelPrec(b *testing.B, memory int, prec mat.Precision) *core.Model {
	b.Helper()
	cfg := core.PaperConfig()
	cfg.Precision = prec
	m, err := core.NewModel(cfg)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	db := make([]fingerprint.Sample, memory)
	for i := range db {
		rss := make([]float64, cfg.NumAPs)
		for j := range rss {
			rss[j] = rng.Float64()
		}
		db[i] = fingerprint.Sample{RSS: rss, RP: i % cfg.NumRPs}
	}
	if err := m.SetMemory(db); err != nil {
		b.Fatal(err)
	}
	return m
}

// randQueries builds n random single-fingerprint queries at paper width.
func randQueries(n, features int) [][]float64 {
	rng := rand.New(rand.NewSource(42))
	qs := make([][]float64, n)
	for i := range qs {
		qs[i] = make([]float64, features)
		for j := range qs[i] {
			qs[i][j] = rng.Float64()
		}
	}
	return qs
}

// servePrecisions are the packed-weight serving precisions the steady-state
// benches sweep; float64 is the baseline the ≥1.5× float32 single-query
// acceptance criterion is measured against.
var servePrecisions = []mat.Precision{mat.PrecFloat64, mat.PrecFloat32, mat.PrecInt8}

// BenchmarkSteadyStateSingleQuery is the tentpole acceptance bench: the
// single-query Predictor path at paper shapes must report 0 allocs/op once
// the workspace and the reduced-precision scratch are warm — at every serving
// precision — and the float32 variant must beat float64 by ≥1.5×
// (min-of-N interleaved via scripts/benchmin.sh).
func BenchmarkSteadyStateSingleQuery(b *testing.B) {
	for _, prec := range servePrecisions {
		b.Run(prec.String(), func(b *testing.B) {
			m := paperShapeModelPrec(b, 512, prec)
			q := randQueries(1, core.PaperConfig().NumAPs)
			x := mat.FromSlice(1, len(q[0]), q[0])
			p := m.Predictor()
			dst := make([]int, 1)
			p.PredictBatchInto(dst, x) // warm workspace and quant scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.PredictBatchInto(dst, x)
			}
		})
	}
}

// BenchmarkSteadyStateBatch measures the workspace batch path (one handle,
// reused buffers) at a serving batch size, at every serving precision.
func BenchmarkSteadyStateBatch(b *testing.B) {
	for _, prec := range servePrecisions {
		b.Run(prec.String(), func(b *testing.B) {
			m := paperShapeModelPrec(b, 512, prec)
			features := core.PaperConfig().NumAPs
			qs := randQueries(8, features)
			x := mat.New(8, features)
			for i, q := range qs {
				copy(x.Row(i), q)
			}
			p := m.Predictor()
			dst := make([]int, 8)
			p.PredictBatchInto(dst, x)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.PredictBatchInto(dst, x)
			}
			b.ReportMetric(8*float64(b.N)/b.Elapsed().Seconds(), "fingerprints/s")
		})
	}
}

// serveClients drives exactly `clients` concurrent goroutines through fn
// until b.N requests complete, independent of GOMAXPROCS.
func serveClients(b *testing.B, clients int, fn func(client, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= b.N {
					return
				}
				fn(c, i)
			}
		}(c)
	}
	wg.Wait()
}

// BenchmarkServeQPS is the engine's concurrency sweep: closed-loop clients
// issuing single-fingerprint queries through a default-options engine, from
// a lone caller (who must pay one model call and no wait) to far more
// clients than workers (where the backlog leaves in MaxBatch-row batches and
// avg_batch shows the realised coalescing). The naive arm — one
// Model.Predict per request at 8 clients, no engine — is the reference.
func BenchmarkServeQPS(b *testing.B) {
	m := paperShapeModel(b, 1024)
	features := core.PaperConfig().NumAPs
	qs := randQueries(64, features)
	rows := make([]*mat.Matrix, len(qs))
	for i, q := range qs {
		rows[i] = mat.FromSlice(1, features, q)
	}

	b.Run("naive_8clients", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		serveClients(b, 8, func(_, i int) {
			m.Predict(rows[i%len(rows)])
		})
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "qps")
	})

	for _, clients := range []int{1, 2, 8, 32, 128} {
		b.Run(fmt.Sprintf("engine_%dclients", clients), func(b *testing.B) {
			reg := localizer.NewRegistry()
			key := localizer.Key{Building: 1, Floor: 0, Backend: "calloc"}
			if _, err := reg.Register(key, localizer.FromCore("CALLOC", m)); err != nil {
				b.Fatal(err)
			}
			engine, err := serve.New(reg, serve.Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer engine.Close()
			b.ReportAllocs()
			b.ResetTimer()
			serveClients(b, clients, func(_, i int) {
				if _, err := engine.Localize(nil, key, qs[i%len(qs)]); err != nil {
					b.Error(err)
				}
			})
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "qps")
			b.ReportMetric(engine.Stats().AvgBatch, "avg_batch")
		})
	}
}

// BenchmarkRegistryDispatch is the tentpole acceptance bench: dispatching a
// paper-shape single query through the localizer registry (atomic snapshot
// load + adapter + pooled predictor) must add <5% latency over holding a
// core.Predictor directly.
func BenchmarkRegistryDispatch(b *testing.B) {
	m := paperShapeModel(b, 512)
	q := randQueries(1, core.PaperConfig().NumAPs)
	x := mat.FromSlice(1, len(q[0]), q[0])
	dst := make([]int, 1)

	b.Run("direct_predictor", func(b *testing.B) {
		p := m.Predictor()
		p.PredictBatchInto(dst, x) // warm the workspace
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.PredictBatchInto(dst, x)
		}
	})

	b.Run("registry", func(b *testing.B) {
		reg := localizer.NewRegistry()
		key := localizer.Key{Building: 1, Floor: 0, Backend: "calloc"}
		if _, err := reg.Register(key, localizer.FromCore("CALLOC", m)); err != nil {
			b.Fatal(err)
		}
		if snap, ok := reg.Get(key); ok {
			snap.Localizer.PredictInto(dst, x) // warm
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			snap, ok := reg.Get(key)
			if !ok {
				b.Fatal("key vanished")
			}
			snap.Localizer.PredictInto(dst, x)
		}
	})
}

// BenchmarkRoutingDispatch measures the hierarchical serving path at paper
// shapes: floor classifier stage + position stage through the engine,
// against the direct single-stage Localize — the routing-dispatch overhead
// the CI bench-smoke tracks.
func BenchmarkRoutingDispatch(b *testing.B) {
	const building = 1
	features := core.PaperConfig().NumAPs
	m := paperShapeModel(b, 512)
	reg := localizer.NewRegistry()
	// Floor classifier: trivial two-floor split on feature 0 — the bench
	// isolates routing overhead, not classifier cost.
	fc := localizer.Wrap("floor", features, 2, nil, func(dst []int, x *mat.Matrix) []int {
		if dst == nil {
			dst = make([]int, x.Rows)
		}
		for i := 0; i < x.Rows; i++ {
			dst[i] = 0
			if x.Row(i)[0] > 0.5 {
				dst[i] = 1
			}
		}
		return dst
	})
	if _, err := reg.Register(localizer.FloorKey(building), fc); err != nil {
		b.Fatal(err)
	}
	for floor := 0; floor < 2; floor++ {
		key := localizer.Key{Building: building, Floor: floor, Backend: "calloc"}
		if _, err := reg.Register(key, localizer.FromCore("CALLOC", m)); err != nil {
			b.Fatal(err)
		}
	}
	engine, err := serve.New(reg, serve.Options{MaxBatch: 8})
	if err != nil {
		b.Fatal(err)
	}
	defer engine.Close()
	qs := randQueries(64, features)

	b.Run("direct", func(b *testing.B) {
		key := localizer.Key{Building: building, Floor: 0, Backend: "calloc"}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := engine.Localize(nil, key, qs[i%len(qs)]); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "qps")
	})

	b.Run("routed", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := engine.Route(nil, building, "calloc", qs[i%len(qs)]); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "qps")
	})
}

// BenchmarkMatMulPackedShapes compares the plain row-major product against
// the packed-operand and fused-epilogue kernels at CALLOC shapes, at every
// serving precision. The float32 variants stream half float64's weight
// bytes; the int8 variants store an eighth, but each product first
// dequantizes the whole snapshot to float32 and then runs the float32
// kernel, so they cost a float32 product plus that pass.
func BenchmarkMatMulPackedShapes(b *testing.B) {
	for _, sh := range matShapes {
		rng := rand.New(rand.NewSource(2))
		x := randDense(rng, sh.m, sh.k)
		y := randDense(rng, sh.k, sh.n)
		p := mat.PackPrec(y, mat.PrecFloat64)
		pf := mat.PackPrec(y, mat.PrecFloat32)
		pq := mat.PackPrec(y, mat.PrecInt8)
		bias := make([]float64, sh.n)
		for i := range bias {
			bias[i] = rng.NormFloat64()
		}
		dst := mat.New(sh.m, sh.n)
		for _, variant := range []struct {
			name string
			run  func()
		}{
			{"plain", func() { mat.MulInto(dst, x, y) }},
			{"packed", func() { mat.MulPackedInto(dst, x, p) }},
			{"packed_f32", func() { mat.MulPackedInto(dst, x, pf) }},
			{"packed_i8", func() { mat.MulPackedInto(dst, x, pq) }},
			{"packed_bias_relu", func() { mat.MulPackedBiasActInto(dst, x, p, bias, mat.ActReLU) }},
			{"packed_f32_bias_relu", func() { mat.MulPackedBiasActInto(dst, x, pf, bias, mat.ActReLU) }},
			{"packed_i8_bias_relu", func() { mat.MulPackedBiasActInto(dst, x, pq, bias, mat.ActReLU) }},
		} {
			b.Run(sh.name+"/"+variant.name, func(b *testing.B) {
				prev := mat.SetParallelism(1)
				defer mat.SetParallelism(prev)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					variant.run()
				}
			})
		}
	}
}

// trainBenchDataset builds the building-scale dataset (Building 3 of
// Table II: 78 APs, 88 RPs) the training benches run on — training cost is
// dominated by the B×M attention and the FGSM crafting pass, both of which
// only show their real shape at building scale.
var (
	trainDSOnce sync.Once
	trainDS     *fingerprint.Dataset
)

func trainBenchDataset(b *testing.B) *fingerprint.Dataset {
	b.Helper()
	trainDSOnce.Do(func() {
		spec, err := floorplan.SpecByID(3)
		if err != nil {
			b.Fatal(err)
		}
		bld := floorplan.Build(spec, 1)
		ds, err := fingerprint.Collect(bld, device.Registry(), fingerprint.DefaultCollectConfig())
		if err != nil {
			b.Fatal(err)
		}
		trainDS = ds
	})
	return trainDS
}

// BenchmarkTrainLesson measures one adversarial curriculum lesson (3 epochs
// at ø=50, ε=0.1: craft FGSM lesson data, sharded forward/backward, Adam
// step) at building scale, sequential vs maximum fan-out. The sharded
// trainer's fixed partition + ordered reduction make the two bit-identical
// (TestTrainDeterministicAcrossParallelism). On a single vCPU the fan-out
// arm has nothing to spread over and cannot beat the sequential one.
func BenchmarkTrainLesson(b *testing.B) {
	ds := trainBenchDataset(b)
	lessons := []curriculum.Lesson{{Number: 1, PhiPercent: 50, Epsilon: 0.1, OriginalFraction: 0.35}}
	run := func(b *testing.B, workers int) {
		prev := mat.SetParallelism(workers)
		defer mat.SetParallelism(prev)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m, err := core.NewModel(core.DefaultConfig(ds.NumAPs, ds.NumRPs))
			if err != nil {
				b.Fatal(err)
			}
			cfg := core.TrainConfig{
				Lessons:       lessons,
				UseCurriculum: true, EpochsPerLesson: 3,
				LearningRate: 0.03, Seed: 1,
			}
			if _, err := m.Train(ds.Train, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("sequential", func(b *testing.B) { run(b, 1) })
	b.Run("parallel_8", func(b *testing.B) { run(b, 8) })
}

// BenchmarkCraftFGSM measures per-epoch FGSM lesson-data crafting at
// building scale: the allocating Craft path against CraftInto with a reused
// destination (plus the scratch-pooled input gradient), the combination the
// trainer's per-epoch loop uses.
func BenchmarkCraftFGSM(b *testing.B) {
	ds := trainBenchDataset(b)
	m, err := core.NewModel(core.DefaultConfig(ds.NumAPs, ds.NumRPs))
	if err != nil {
		b.Fatal(err)
	}
	if err := m.SetMemory(ds.Train); err != nil {
		b.Fatal(err)
	}
	x := fingerprint.X(ds.Train)
	labels := fingerprint.Labels(ds.Train)
	cfg := attack.Config{Epsilon: 0.1, PhiPercent: 50, Seed: 1}
	b.Run("alloc", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			attack.Craft(attack.FGSM, m, x, labels, cfg)
		}
	})
	b.Run("into", func(b *testing.B) {
		dst := mat.New(x.Rows, x.Cols)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			attack.CraftInto(dst, attack.FGSM, m, x, labels, cfg)
		}
	})
}

// BenchmarkRouterHop measures the fleet router's per-hop cost: one
// /v1/localize POST against a node's HTTP surface directly vs the same
// request through a cluster.Router front door backed by that node. Both
// paths use one keep-alive client and an explicit floor (a direct registry
// lookup on the node), so the delta is purely the router hop — body read,
// owner resolution, and the pooled proxy round trip.
func BenchmarkRouterHop(b *testing.B) {
	ds := ablationDataset(b)
	m, err := core.NewModel(core.DefaultConfig(ds.NumAPs, ds.NumRPs))
	if err != nil {
		b.Fatal(err)
	}
	blob, err := m.MarshalWeights()
	if err != nil {
		b.Fatal(err)
	}
	n, err := node.New([]*fingerprint.Dataset{ds}, node.Config{
		Backends:       []string{"calloc"},
		WeightBlobs:    [][]byte{blob},
		Engine:         serve.Options{MaxBatch: 8},
		DisableTrainer: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer n.Close()
	nodeSrv := httptest.NewServer(n.Handler())
	defer nodeSrv.Close()

	sm, err := cluster.NewStaticMap(
		map[string]string{"n": nodeSrv.URL},
		map[cluster.ShardKey]string{{Building: ds.BuildingID, Floor: 0}: "n"},
	)
	if err != nil {
		b.Fatal(err)
	}
	router, err := cluster.NewRouter(sm, cluster.RouterOptions{
		Building: ds.BuildingID, ProbeInterval: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer router.Close()
	frontSrv := httptest.NewServer(router.Handler())
	defer frontSrv.Close()

	q := ds.Test["OP3"][0]
	body, err := json.Marshal(map[string]any{"rss": q.RSS, "floor": 0})
	if err != nil {
		b.Fatal(err)
	}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}
	post := func(b *testing.B, url string) {
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}

	run := func(name, url string) {
		b.Run(name, func(b *testing.B) {
			post(b, url) // warm the connection pool and model workspace
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				post(b, url)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "qps")
		})
	}
	run("direct", nodeSrv.URL+"/v1/localize")
	run("proxied", frontSrv.URL+"/v1/localize")
}

// wireDataset builds the small building the wire benches serve: few enough
// APs and reference points that any backend's per-row predict is noise next
// to the HTTP exchange it rides in.
var (
	wireOnce sync.Once
	wireDS   *fingerprint.Dataset
)

func wireDataset(b *testing.B) *fingerprint.Dataset {
	b.Helper()
	wireOnce.Do(func() {
		spec := floorplan.Spec{
			ID: 91, Name: "Wire", VisibleAPs: 12, PathLengthM: 4,
			Characteristics: "bench", Model: floorplan.Registry()[2].Model,
		}
		bld := floorplan.Build(spec, 1)
		ds, err := fingerprint.Collect(bld, device.Registry(), fingerprint.DefaultCollectConfig())
		if err != nil {
			b.Fatal(err)
		}
		wireDS = ds
	})
	return wireDS
}

// rawConn is a keep-alive HTTP/1.1 connection with hand-rolled framing: a
// prebuilt request byte slice goes out, the status line and Content-Length
// come back, the body lands in a reused buffer. http.Client costs ~50
// allocations per request on its own, which would drown the server wire
// numbers BenchmarkWirePath exists to measure; this client costs ~0.
type rawConn struct {
	c   net.Conn
	br  *bufio.Reader
	buf []byte
}

func dialWire(addr string) (*rawConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &rawConn{c: c, br: bufio.NewReaderSize(c, 4096), buf: make([]byte, 0, 4096)}, nil
}

// roundTrip writes one prebuilt request and parses the response in place.
// The returned body aliases the connection's reuse buffer.
func (rc *rawConn) roundTrip(req []byte) (status int, body []byte, err error) {
	if _, err := rc.c.Write(req); err != nil {
		return 0, nil, err
	}
	line, err := rc.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 {
		return 0, nil, fmt.Errorf("short status line %q", line)
	}
	status = int(line[9]-'0')*100 + int(line[10]-'0')*10 + int(line[11]-'0')
	clen := -1
	for {
		line, err = rc.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		if len(line) <= 2 { // blank line: end of headers
			break
		}
		const cl = "Content-Length:"
		if len(line) > len(cl) && string(line[:len(cl)]) == cl {
			n := 0
			for _, ch := range line[len(cl):] {
				if ch >= '0' && ch <= '9' {
					n = n*10 + int(ch-'0')
				}
			}
			clen = n
		}
	}
	if clen < 0 {
		return 0, nil, fmt.Errorf("response without Content-Length")
	}
	if cap(rc.buf) < clen {
		rc.buf = make([]byte, clen)
	}
	body = rc.buf[:clen]
	if _, err := io.ReadFull(rc.br, body); err != nil {
		return 0, nil, err
	}
	return status, body, nil
}

// rawRequest prebuilds the full HTTP/1.1 request bytes for one POST.
func rawRequest(path string, body []byte) []byte {
	return []byte(fmt.Sprintf(
		"POST %s HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
		path, len(body), body))
}

// BenchmarkWirePath measures the serving wire itself — pooled handler decode
// → engine round trip → append-style emit — with the raw keep-alive client
// above, so allocs/op is the SERVER cost (plus a handful for net/http's own
// per-request framing), not the client's. Arms:
//
//	direct_single       one fingerprint per request against the node
//	direct_batch64      64 fingerprints per /v1/localize/batch request
//	proxied_single      the same single request through the router hop
//	proxied_par32       proxied singles at concurrency 32, no coalescing
//	proxied_coalesced32 concurrency 32 with router-side coalescing into
//	                    upstream batches (CoalesceBatch 32)
func BenchmarkWirePath(b *testing.B) {
	ds := wireDataset(b)
	// The bayes backend predicts through the same pooled adapter scratch as
	// the packed calloc path (zero allocations per call) but costs under a
	// microsecond per row on the small wire building, so the arms measure
	// the WIRE — decode, engine round trip, emit, proxy hop — rather than
	// model compute, which batching cannot amortize.
	n, err := node.New([]*fingerprint.Dataset{ds}, node.Config{
		Backends:       []string{"bayes"},
		Engine:         serve.Options{MaxBatch: 64},
		DisableTrainer: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer n.Close()
	nodeSrv := httptest.NewServer(n.Handler())
	defer nodeSrv.Close()
	nodeAddr := nodeSrv.Listener.Addr().String()

	mkRouter := func(coalesce int, wait time.Duration) (*cluster.Router, string) {
		sm, err := cluster.NewStaticMap(
			map[string]string{"n": nodeSrv.URL},
			map[cluster.ShardKey]string{{Building: ds.BuildingID, Floor: 0}: "n"},
		)
		if err != nil {
			b.Fatal(err)
		}
		router, err := cluster.NewRouter(sm, cluster.RouterOptions{
			Building: ds.BuildingID, ProbeInterval: -1,
			CoalesceBatch: coalesce, CoalesceWait: wait,
		})
		if err != nil {
			b.Fatal(err)
		}
		srv := httptest.NewServer(router.Handler())
		b.Cleanup(srv.Close)
		b.Cleanup(router.Close)
		return router, srv.Listener.Addr().String()
	}
	_, plainAddr := mkRouter(0, 0)
	_, coAddr := mkRouter(32, 2*time.Millisecond)

	qs := ds.Test["OP3"]
	single, err := json.Marshal(map[string]any{"rss": qs[0].RSS, "floor": 0})
	if err != nil {
		b.Fatal(err)
	}
	singleReq := rawRequest("/v1/localize", single)
	var batchBody bytes.Buffer
	batchBody.WriteString(`{"queries":[`)
	for i := 0; i < 64; i++ {
		if i > 0 {
			batchBody.WriteByte(',')
		}
		row, err := json.Marshal(map[string]any{"rss": qs[i%len(qs)].RSS, "floor": 0})
		if err != nil {
			b.Fatal(err)
		}
		batchBody.Write(row)
	}
	batchBody.WriteString(`]}`)
	batchReq := rawRequest("/v1/localize/batch", batchBody.Bytes())

	runSeq := func(name, addr string, req []byte, rows int) {
		b.Run(name, func(b *testing.B) {
			rc, err := dialWire(addr)
			if err != nil {
				b.Fatal(err)
			}
			defer rc.c.Close()
			if status, _, err := rc.roundTrip(req); err != nil || status != http.StatusOK {
				b.Fatalf("warmup: status %d, err %v", status, err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				status, _, err := rc.roundTrip(req)
				if err != nil || status != http.StatusOK {
					b.Fatalf("status %d, err %v", status, err)
				}
			}
			b.ReportMetric(float64(b.N*rows)/b.Elapsed().Seconds(), "rows/s")
			if rows > 1 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
			}
		})
	}
	runPar := func(name, addr string, conc int) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetParallelism(conc) // conc goroutines per GOMAXPROCS
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rc, err := dialWire(addr)
				if err != nil {
					b.Error(err)
					return
				}
				defer rc.c.Close()
				for pb.Next() {
					status, _, err := rc.roundTrip(singleReq)
					if err != nil || status != http.StatusOK {
						b.Errorf("status %d, err %v", status, err)
						return
					}
				}
			})
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "qps")
		})
	}

	runSeq("direct_single", nodeAddr, singleReq, 1)
	runSeq("direct_batch64", nodeAddr, batchReq, 64)
	runSeq("proxied_single", plainAddr, singleReq, 1)
	runPar("proxied_par32", plainAddr, 32)
	runPar("proxied_coalesced32", coAddr, 32)
}
