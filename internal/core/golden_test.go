package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"calloc/internal/device"
	"calloc/internal/fingerprint"
	"calloc/internal/floorplan"
	"calloc/internal/mat"
	"calloc/internal/nn"
)

// The golden outputs below pin the served path bit for bit. They were
// recorded on amd64 before the serving snapshot replaced the packed-view
// cache, and a change that claims to keep predictions identical must leave
// every one of them as it is.
//
// Elsewhere the float32 and int8 kernels take portable paths with their own
// rounding, so the hashes are asserted on amd64 only;
// TestServedMatchesLogits checks the served path on every target. On a CPU
// with AVX2 every test here runs twice, on the kernels the CPU selects and
// in a "noavx2" subtest with the AVX2 gate forced off, so one set of hashes
// pins both paths.

// servedShapeModel builds an untrained model at the served shape (156 APs →
// 128 → 64, 320 memory rows, 64 RPs) with synthetic memory, and a 67-row
// query batch: 64 rows fill the 4-row kernel tiles, the last three take the
// remainder path.
func servedShapeModel(t testing.TB, prec mat.Precision) (*Model, *mat.Matrix) {
	t.Helper()
	cfg := DefaultConfig(156, 64)
	cfg.Precision = prec
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	db := make([]fingerprint.Sample, 320)
	for i := range db {
		rss := make([]float64, cfg.NumAPs)
		for j := range rss {
			if rng.Intn(3) > 0 { // a third of the APs unheard: ReLU-sparse activations
				rss[j] = rng.Float64()
			}
		}
		db[i] = fingerprint.Sample{RSS: rss, RP: rng.Intn(cfg.NumRPs)}
	}
	if err := m.SetMemory(db); err != nil {
		t.Fatal(err)
	}
	x := mat.New(67, cfg.NumAPs)
	for i := range x.Data {
		x.Data[i] = rng.Float64()
	}
	return m, x
}

// floatsHash is the FNV-64a hash of every value's float64 bit pattern.
func floatsHash(vs []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// servedHash hashes the logits the model's predictor serves for x.
func servedHash(m *Model, x *mat.Matrix) uint64 {
	return floatsHash(m.Predictor().logits(x).Data)
}

func requireAMD64(t *testing.T) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skip("golden hashes are recorded on amd64")
	}
}

// bothKernels runs check on the kernels this CPU selects, then again with
// the AVX2 gate forced off as the "noavx2" subtest.
func bothKernels(t *testing.T, check func(t *testing.T)) {
	check(t)
	t.Run("noavx2", func(t *testing.T) {
		if mat.Kernel() != "avx2" {
			t.Skip("the run above already took the portable kernels")
		}
		defer mat.SetAVX2(mat.SetAVX2(false))
		check(t)
	})
}

// TestGoldenServedShape pins the served logits and the resident footprint
// of an untrained served-shape model at every precision, and checks that a
// weight blob carries them to a model whose own weights differ.
func TestGoldenServedShape(t *testing.T) {
	requireAMD64(t)
	bothKernels(t, checkGoldenServedShape)
}

func checkGoldenServedShape(t *testing.T) {
	for _, tc := range []struct {
		prec   mat.Precision
		logits uint64
		bytes  int64
	}{
		{mat.PrecFloat64, 0x196e3d7169d74756, 421888},
		{mat.PrecFloat32, 0x43e83a77b044b7dc, 210944},
		{mat.PrecInt8, 0xfe80e5904b034374, 55040},
	} {
		t.Run(tc.prec.String(), func(t *testing.T) {
			m, x := servedShapeModel(t, tc.prec)
			if got := servedHash(m, x); got != tc.logits {
				t.Fatalf("served logits hash %#x, want %#x", got, tc.logits)
			}
			if _, got := m.Footprint(); got != tc.bytes {
				t.Fatalf("footprint %d bytes, want %d", got, tc.bytes)
			}

			blob, err := m.MarshalWeights()
			if err != nil {
				t.Fatal(err)
			}
			other, _ := servedShapeModel(t, tc.prec)
			for _, p := range other.Params() {
				for i := range p.W.Data {
					p.W.Data[i] += 0.01
				}
			}
			other.RefreshMemoryKeys()
			if servedHash(other, x) == tc.logits {
				t.Fatal("shifted weights served the golden logits")
			}
			if err := other.UnmarshalWeights(blob); err != nil {
				t.Fatal(err)
			}
			if got := servedHash(other, x); got != tc.logits {
				t.Fatalf("reloaded logits hash %#x, want %#x", got, tc.logits)
			}
		})
	}
}

// TestGoldenTrained pins a short curriculum run end to end: the loss trace
// of 12 epochs, then the served logits of its weights reloaded at every
// precision.
func TestGoldenTrained(t *testing.T) {
	requireAMD64(t)
	bothKernels(t, checkGoldenTrained)
}

func checkGoldenTrained(t *testing.T) {
	ds := testDataset(t)
	cfg := smallConfig(ds)
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tc := quickTrainConfig()
	tc.EpochsPerLesson = 3
	res, err := m.Train(ds.Train, tc)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.LossHistory); n != 12 {
		t.Fatalf("%d epochs in the loss trace, want 12", n)
	}
	if got, want := floatsHash(res.LossHistory), uint64(0xbdea7bf4d98d094b); got != want {
		t.Fatalf("loss trace hash %#x, want %#x", got, want)
	}
	blob, err := m.MarshalWeights()
	if err != nil {
		t.Fatal(err)
	}
	x := fingerprint.X(ds.Test["OP3"])
	for _, want := range []struct {
		prec   mat.Precision
		logits uint64
	}{
		{mat.PrecFloat64, 0x7fa2d871bd63ac30},
		{mat.PrecFloat32, 0xe0c8ee342e808a7e},
		{mat.PrecInt8, 0x36c8808782fc9ad7},
	} {
		cfg.Precision = want.prec
		served, err := NewModel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := served.SetMemory(ds.Train); err != nil {
			t.Fatal(err)
		}
		if err := served.UnmarshalWeights(blob); err != nil {
			t.Fatal(err)
		}
		if got := servedHash(served, x); got != want.logits {
			t.Errorf("%s: served logits hash %#x, want %#x", want.prec, got, want.logits)
		}
	}
}

// TestServedSnapshotIgnoresTrainingUntilRefresh: what a model serves is
// compiled at hand-over. An optimizer step on its parameters stays invisible
// to the predictor until RefreshMemoryKeys publishes it.
func TestServedSnapshotIgnoresTrainingUntilRefresh(t *testing.T) {
	bothKernels(t, checkServedSnapshotIgnoresTrainingUntilRefresh)
}

func checkServedSnapshotIgnoresTrainingUntilRefresh(t *testing.T) {
	m, x := servedShapeModel(t, mat.PrecFloat32)
	before := servedHash(m, x)
	rng := rand.New(rand.NewSource(29))
	for _, p := range m.Params() {
		for i := range p.G.Data {
			p.G.Data[i] = rng.NormFloat64()
		}
	}
	nn.NewAdam(0.01).Step(m.Params())
	if got := servedHash(m, x); got != before {
		t.Fatalf("an optimizer step moved the served logits %#x → %#x before hand-over", before, got)
	}
	m.RefreshMemoryKeys()
	if servedHash(m, x) == before {
		t.Fatal("RefreshMemoryKeys did not publish the stepped weights")
	}
}

// TestServedMatchesLogits: the served path — packed weights, transposed
// packed key projection, value mix scattered over the memory labels — agrees
// with the training-side Logits: to 1e-9 at float64, 1e-4 at float32, and on
// every row's argmax class at int8.
func TestServedMatchesLogits(t *testing.T) {
	bothKernels(t, checkServedMatchesLogits)
}

func checkServedMatchesLogits(t *testing.T) {
	for _, tc := range []struct {
		prec mat.Precision
		tol  float64 // 0: argmax agreement only
	}{{mat.PrecFloat64, 1e-9}, {mat.PrecFloat32, 1e-4}, {mat.PrecInt8, 0}} {
		t.Run(tc.prec.String(), func(t *testing.T) {
			m, x := servedShapeModel(t, tc.prec)
			want := m.Logits(x)
			got := m.Predictor().logits(x)
			if got.Rows != want.Rows || got.Cols != want.Cols {
				t.Fatalf("shape %dx%d, want %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
			}
			for r := 0; r < want.Rows; r++ {
				if tc.tol == 0 {
					if g, w := mat.ArgMax(got.Row(r)), mat.ArgMax(want.Row(r)); g != w {
						t.Fatalf("row %d: argmax %d, want %d", r, g, w)
					}
					continue
				}
				for j, w := range want.Row(r) {
					if g := got.Row(r)[j]; math.Abs(g-w) > tc.tol {
						t.Fatalf("row %d class %d: %g, want %g (tol %g)", r, j, g, w, tc.tol)
					}
				}
			}
		})
	}
}

// TestGoldenTrainedServedShape pins quick-training at the served shape: one
// floor of Building 1 as the benchmark world collects it (156 APs × 64 RPs,
// five training fingerprints per RP, so 320 memory rows), trained with the
// default curriculum at five epochs per lesson. The weights, the loss trace
// and the float64 logits on every test device in device.Acronyms() order
// are hashed.
func TestGoldenTrainedServedShape(t *testing.T) {
	requireAMD64(t)
	if testing.Short() {
		t.Skip("served-shape training takes seconds")
	}
	bothKernels(t, checkGoldenTrainedServedShape)
}

func checkGoldenTrainedServedShape(t *testing.T) {
	spec, err := floorplan.SpecByID(1)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := fingerprint.Collect(floorplan.Build(spec, 1), device.Registry(), fingerprint.CollectConfig{
		TrainPerRP: 5, TestPerRP: 4, TrainDevice: device.TrainingDevice, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(DefaultConfig(ds.NumAPs, ds.NumRPs))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetMemory(ds.Train); err != nil {
		t.Fatal(err)
	}
	tc := DefaultTrainConfig()
	tc.EpochsPerLesson = 5
	res, err := m.Train(ds.Train, tc)
	if err != nil {
		t.Fatal(err)
	}
	var weights []float64
	for _, p := range m.Params() {
		weights = append(weights, p.W.Data...)
	}
	var test []fingerprint.Sample
	for _, dev := range device.Acronyms() {
		test = append(test, ds.Test[dev]...)
	}
	for _, h := range []struct {
		name      string
		got, want uint64
	}{
		{"weights", floatsHash(weights), 0x8938fc2b6333ece6},
		{"loss trace", floatsHash(res.LossHistory), 0x12a7673bcfcc1d78},
		{"test logits", servedHash(m, fingerprint.X(test)), 0xc39343ed47e01e0b},
	} {
		if h.got != h.want {
			t.Errorf("%s hash %#x, want %#x", h.name, h.got, h.want)
		}
	}
}
