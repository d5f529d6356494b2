package mat

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// Naive reference products, deliberately independent of the kernels under
// test (triple loop over At/Set only).

func refMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func refMulT(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(j, k)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func refTMul(a, b *Matrix) *Matrix {
	out := New(a.Cols, b.Cols)
	for i := 0; i < a.Cols; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Rows; k++ {
				s += a.At(k, i) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func sparseMatrix(r, c int, rng *rand.Rand) *Matrix {
	m := New(r, c)
	for i := range m.Data {
		// Mix in exact zeros to exercise the sparse skip in the kernels.
		if rng.Intn(5) == 0 {
			continue
		}
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// productShapes covers degenerate, tiny, tall, wide, and
// threshold-straddling sizes (the default threshold is 64³ multiply-adds).
var productShapes = []struct {
	name    string
	m, k, n int // a is m×k, b is k×n
}{
	{"0xN", 0, 7, 5},
	{"Nx0inner", 4, 0, 5},
	{"Nx0out", 4, 7, 0},
	{"1x1", 1, 1, 1},
	{"tiny", 3, 4, 5},
	{"tall", 300, 5, 4},
	{"wide", 4, 5, 300},
	{"deep", 5, 300, 4},
	{"belowThreshold", 63, 63, 63},
	{"atThreshold", 64, 64, 64},
	{"aboveThreshold", 65, 64, 65},
	{"square128", 128, 128, 128},
}

// expectEqual asserts bit-identical matrices. The parallel kernels perform
// the same operations in the same order per output row as the sequential
// ones, so sequential-vs-parallel comparisons require exact equality.
func expectEqual(t *testing.T, got, want *Matrix, label string) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", label, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, v := range want.Data {
		if got.Data[i] != v {
			t.Fatalf("%s: element %d = %g, want %g", label, i, got.Data[i], v)
		}
	}
}

// expectClose asserts element-wise agreement to a tight relative tolerance.
// The blocked kernels unroll their inner loops 4-wide (independent partial
// accumulators), which reorders floating-point accumulation relative to a
// naive triple loop, so reference comparisons allow last-ulps drift.
func expectClose(t *testing.T, got, want *Matrix, label string) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", label, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, v := range want.Data {
		scale := math.Abs(v)
		if scale < 1 {
			scale = 1
		}
		if math.Abs(got.Data[i]-v) > 1e-12*scale {
			t.Fatalf("%s: element %d = %g, want %g", label, i, got.Data[i], v)
		}
	}
}

// dirtyDst returns a destination pre-filled with garbage so the tests catch
// kernels that accumulate into the destination instead of overwriting it.
func dirtyDst(r, c int) *Matrix {
	d := New(r, c)
	for i := range d.Data {
		d.Data[i] = 1e9
	}
	return d
}

func TestProductEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, forced := range []struct {
		name             string
		workers, minSize int
	}{
		{"sequential", 1, 0},
		{"parallel", 8, 1},
	} {
		t.Run(forced.name, func(t *testing.T) {
			defer SetParallelism(SetParallelism(forced.workers))
			if forced.minSize > 0 {
				defer setParallelThreshold(setParallelThreshold(forced.minSize))
			}
			for _, sh := range productShapes {
				t.Run(sh.name, func(t *testing.T) {
					a := sparseMatrix(sh.m, sh.k, rng)
					b := sparseMatrix(sh.k, sh.n, rng)
					bt := b.Transpose() // for MulT: a·(bᵀ)ᵀ = a·b
					at := a.Transpose() // for TMul: (aᵀ)ᵀ·b = a·b
					want := refMul(a, b)

					expectClose(t, Mul(a, b), want, "Mul")
					expectClose(t, MulT(a, bt), refMulT(a, bt), "MulT")
					expectClose(t, TMul(at, b), refTMul(at, b), "TMul")

					expectClose(t, MulInto(dirtyDst(sh.m, sh.n), a, b), want, "MulInto")
					expectClose(t, MulTInto(dirtyDst(sh.m, sh.n), a, bt), want, "MulTInto")
					expectClose(t, TMulInto(dirtyDst(sh.m, sh.n), at, b), want, "TMulInto")
				})
			}
		})
	}
}

// TestParallelBitIdenticalToSequential verifies the determinism contract:
// sharding a product across goroutines must give bit-identical results to
// running it sequentially, because workers own disjoint destination rows and
// each row is summed in the same order either way.
func TestParallelBitIdenticalToSequential(t *testing.T) {
	defer SetParallelism(SetParallelism(0))
	defer setParallelThreshold(setParallelThreshold(0))
	rng := rand.New(rand.NewSource(9))
	for _, sh := range productShapes {
		a := sparseMatrix(sh.m, sh.k, rng)
		b := sparseMatrix(sh.k, sh.n, rng)
		bt := b.Transpose()
		at := a.Transpose()

		SetParallelism(1)
		seqMul := Mul(a, b)
		seqMulT := MulT(a, bt)
		seqTMul := TMul(at, b)

		SetParallelism(8)
		setParallelThreshold(1)
		expectEqual(t, Mul(a, b), seqMul, sh.name+"/Mul")
		expectEqual(t, MulT(a, bt), seqMulT, sh.name+"/MulT")
		expectEqual(t, TMul(at, b), seqTMul, sh.name+"/TMul")
		SetParallelism(0)
		setParallelThreshold(0)
	}
}

func TestIntoDstShapeChecked(t *testing.T) {
	a, b := New(3, 4), New(4, 5)
	for _, tc := range []struct {
		name string
		call func()
	}{
		{"MulInto", func() { MulInto(New(3, 4), a, b) }},
		{"MulTInto", func() { MulTInto(New(2, 2), a, New(5, 4)) }},
		{"TMulInto", func() { TMulInto(New(3, 3), a, New(3, 5)) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic for wrong destination shape", tc.name)
				}
			}()
			tc.call()
		}()
	}
}

func TestElementwiseInto(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := sparseMatrix(4, 6, rng)
	b := sparseMatrix(4, 6, rng)

	doubled := New(4, 6)
	for i, v := range a.Data {
		doubled.Data[i] = 2 * v
	}
	expectEqual(t, a.Apply(func(v float64) float64 { return 2 * v }), doubled, "Apply")

	m := a.Clone()
	m.AddInPlace(b)
	expectEqual(t, m, add(a, b), "AddInPlace")

	// AddScaledInPlace against a scaled copy added by the reference.
	quarter := b.Clone()
	quarter.ScaleInPlace(0.25)
	m = a.Clone()
	m.AddScaledInPlace(b, 0.25)
	expectEqual(t, m, add(a, quarter), "AddScaledInPlace")
}

func TestParallelismKnobs(t *testing.T) {
	prev := SetParallelism(3)
	if got := Parallelism(); got != 3 {
		t.Fatalf("Parallelism() = %d after SetParallelism(3)", got)
	}
	if back := SetParallelism(prev); back != 3 {
		t.Fatalf("SetParallelism returned %d, want previous 3", back)
	}
	pt := setParallelThreshold(123)
	if got := setParallelThreshold(pt); got != 123 {
		t.Fatalf("setParallelThreshold returned %d, want 123", got)
	}
}

// TestConcurrentProducts hammers the parallel kernels from many goroutines
// over shared (read-only) operands; run with -race to verify the sharding
// never writes across worker boundaries.
func TestConcurrentProducts(t *testing.T) {
	defer SetParallelism(SetParallelism(4))
	defer setParallelThreshold(setParallelThreshold(1))
	rng := rand.New(rand.NewSource(11))
	a := sparseMatrix(37, 29, rng)
	b := sparseMatrix(29, 31, rng)
	want := Mul(a, b) // same kernel: concurrent results must be bit-identical
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				dst := GetScratch(a.Rows, b.Cols)
				MulInto(dst, a, b)
				for i, v := range want.Data {
					if dst.Data[i] != v {
						t.Errorf("concurrent MulInto diverged at %d", i)
						return
					}
				}
				PutScratch(dst)
			}
		}()
	}
	wg.Wait()
}

func TestScratchPool(t *testing.T) {
	m := GetScratch(5, 7)
	if m.Rows != 5 || m.Cols != 7 || len(m.Data) != 35 {
		t.Fatalf("GetScratch shape %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	for i := range m.Data {
		m.Data[i] = 3
	}
	m.Zero()
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("Zero left element %d = %g", i, v)
		}
	}
	PutScratch(m)
	PutScratch(nil) // must not panic

	// A recycled matrix must be resizable both down and up.
	small := GetScratch(1, 2)
	PutScratch(small)
	big := GetScratch(100, 100)
	if len(big.Data) != 100*100 {
		t.Fatalf("GetScratch(100,100) len %d", len(big.Data))
	}
	PutScratch(big)
}

// benchProduct builds deterministic n×n operands.
func benchProduct(n int) (*Matrix, *Matrix) {
	rng := rand.New(rand.NewSource(1))
	a := New(n, n)
	b := New(n, n)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
		b.Data[i] = rng.NormFloat64()
	}
	return a, b
}

func benchmarkKernel(b *testing.B, workers int, f func(x, y *Matrix) *Matrix) {
	x, y := benchProduct(256)
	defer SetParallelism(SetParallelism(workers))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f(x, y)
	}
}

func BenchmarkMul256Sequential(b *testing.B)  { benchmarkKernel(b, 1, Mul) }
func BenchmarkMul256Parallel(b *testing.B)    { benchmarkKernel(b, 0, Mul) }
func BenchmarkMulT256Sequential(b *testing.B) { benchmarkKernel(b, 1, MulT) }
func BenchmarkMulT256Parallel(b *testing.B)   { benchmarkKernel(b, 0, MulT) }
func BenchmarkTMul256Sequential(b *testing.B) { benchmarkKernel(b, 1, TMul) }
func BenchmarkTMul256Parallel(b *testing.B)   { benchmarkKernel(b, 0, TMul) }

// BenchmarkMul256Into measures the allocation win of destination reuse.
func BenchmarkMul256Into(b *testing.B) {
	x, y := benchProduct(256)
	dst := New(256, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulInto(dst, x, y)
	}
}

// TestShardRowsCoversAllRows: every row is processed exactly once for any
// worker bound, and the global worker budget drains back to zero.
func TestShardRowsCoversAllRows(t *testing.T) {
	defer SetParallelism(SetParallelism(0))
	for _, rows := range []int{0, 1, 5, 16, 100} {
		for _, workers := range []int{1, 3, 4, 64} {
			SetParallelism(workers)
			var mu sync.Mutex
			seen := make([]int, rows)
			ShardRows(rows, func(lo, hi int) {
				mu.Lock()
				defer mu.Unlock()
				for i := lo; i < hi; i++ {
					seen[i]++
				}
			})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("rows=%d workers=%d: row %d visited %d times", rows, workers, i, c)
				}
			}
		}
	}
	if n := inflight.Load(); n != 0 {
		t.Fatalf("worker budget leaked: inflight = %d", n)
	}
}

// TestShardRowsNestedStaysBounded: a shard worker that itself shards must
// find the budget drained and run inline rather than multiplying
// goroutines; the combined work is still complete and the budget drains.
func TestShardRowsNestedStaysBounded(t *testing.T) {
	defer SetParallelism(SetParallelism(4))
	const outer, inner = 8, 32
	counts := make([][]int64, outer)
	for i := range counts {
		counts[i] = make([]int64, inner)
	}
	ShardRows(outer, func(lo, hi int) {
		for o := lo; o < hi; o++ {
			o := o
			ShardRows(inner, func(ilo, ihi int) {
				for i := ilo; i < ihi; i++ {
					atomic.AddInt64(&counts[o][i], 1)
				}
			})
		}
	})
	for o := range counts {
		for i, c := range counts[o] {
			if c != 1 {
				t.Fatalf("cell (%d,%d) visited %d times", o, i, c)
			}
		}
	}
	if n := inflight.Load(); n != 0 {
		t.Fatalf("worker budget leaked: inflight = %d", n)
	}
}
