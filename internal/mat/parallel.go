package mat

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Parallelism knob.
//
// The three training products (Mul, MulT, TMul) dispatch between a
// sequential kernel and a goroutine row-sharded kernel; the packed serving
// products always run inline on the caller's goroutine. SetParallelism
// bounds the number of worker goroutines per product (default GOMAXPROCS; 1
// disables sharding entirely). Products below defaultParallelThreshold
// multiply-adds (rows×inner×cols) stay sequential, so small matrices never
// pay goroutine and synchronisation overhead.
//
// The knob is safe to change concurrently and applies to all subsequent
// products. Workers always own disjoint row ranges of the destination, so
// the parallel kernels are deterministic: every parallel product is
// bit-identical to its sequential counterpart.

// defaultParallelThreshold is the multiply-add count above which sharding
// pays for itself; 64×64×64 products and larger go parallel, smaller ones
// do not.
const defaultParallelThreshold = 64 * 64 * 64

var (
	parWorkers   atomic.Int64 // 0 means "use GOMAXPROCS"
	parThreshold atomic.Int64
)

func init() { parThreshold.Store(defaultParallelThreshold) }

// Parallelism returns the current worker bound for the parallel kernels.
func Parallelism() int {
	if n := parWorkers.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// SetParallelism bounds the number of goroutines a single matrix product may
// use and returns the previous bound. n ≤ 0 restores the default
// (GOMAXPROCS); n == 1 forces every product onto the calling goroutine.
func SetParallelism(n int) int {
	prev := Parallelism()
	if n <= 0 {
		parWorkers.Store(0)
	} else {
		parWorkers.Store(int64(n))
	}
	return prev
}

// setParallelThreshold sets the minimum product size (rows×inner×cols
// multiply-adds) that is sharded across goroutines, returning the previous
// threshold. n ≤ 0 restores the default. Tests use it to force sharding.
func setParallelThreshold(n int) int {
	prev := int(parThreshold.Load())
	if n <= 0 {
		n = defaultParallelThreshold
	}
	parThreshold.Store(int64(n))
	return prev
}

// inflight counts extra worker goroutines currently running across every
// shard point (the training kernels and the trainer's batch shards).
// Bounding the total to Parallelism() makes nested sharding — a parallel
// kernel inside a trainer shard — degrade to inline execution instead of
// oversubscribing the scheduler with workers × Parallelism goroutines.
var inflight atomic.Int64

// acquireWorkers reserves up to want extra workers from the global budget
// and returns how many were granted (possibly zero). Non-blocking, so
// nested shard points can never deadlock.
func acquireWorkers(want int) int {
	for {
		cur := inflight.Load()
		avail := int64(Parallelism()) - 1 - cur
		if avail <= 0 {
			return 0
		}
		grant := int64(want)
		if grant > avail {
			grant = avail
		}
		if inflight.CompareAndSwap(cur, cur+grant) {
			return int(grant)
		}
	}
}

func releaseWorkers(n int) {
	if n > 0 {
		inflight.Add(int64(-n))
	}
}

// ShardRows splits [0, rows) into contiguous chunks and runs fn on each,
// using up to Parallelism() goroutines. The calling goroutine always
// processes the first chunk itself; extra workers come from a global budget
// of Parallelism()−1, so concurrent and nested shard points share one bound
// instead of multiplying. fn must only touch state owned by its row range.
func ShardRows(rows int, fn func(lo, hi int)) {
	workers := Parallelism()
	if workers > rows {
		workers = rows
	}
	extra := 0
	if workers > 1 {
		extra = acquireWorkers(workers - 1)
	}
	workers = extra + 1
	if workers <= 1 || rows <= 0 {
		releaseWorkers(extra)
		fn(0, rows)
		return
	}
	chunk := (rows + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := chunk; lo < rows; lo += chunk {
		hi := lo + chunk
		if hi > rows {
			hi = rows
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	fn(0, chunk)
	wg.Wait()
	releaseWorkers(extra)
}

// useParallel reports whether a product of the given multiply-add count over
// the given destination row count should shard.
func useParallel(flops, rows int) bool {
	return rows > 1 && int64(flops) >= parThreshold.Load() && Parallelism() > 1
}

// prepDst validates or allocates the destination of an Into product. dst may
// be nil, in which case a fresh r×c matrix is returned. The destination must
// not alias either operand: the kernels write it incrementally.
func prepDst(dst *Matrix, r, c int, op string) *Matrix {
	if dst == nil {
		return New(r, c)
	}
	if dst.Rows != r || dst.Cols != c {
		panic(fmt.Sprintf("mat: %s destination %dx%d, want %dx%d", op, dst.Rows, dst.Cols, r, c))
	}
	return dst
}

// MulInto computes a·b into dst (allocating it when nil) and returns dst.
// Sharded across goroutines for large products; see SetParallelism. dst
// must not alias a or b.
func MulInto(dst, a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: Mul inner mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	dst = prepDst(dst, a.Rows, b.Cols, "MulInto")
	if useParallel(a.Rows*a.Cols*b.Cols, a.Rows) {
		ShardRows(a.Rows, func(lo, hi int) { mulRows(dst, a, b, lo, hi) })
	} else {
		mulRows(dst, a, b, 0, a.Rows)
	}
	return dst
}

// MulTInto computes a·bᵀ into dst (allocating it when nil) and returns dst,
// without materialising the transpose. dst must not alias a or b.
func MulTInto(dst, a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MulT inner mismatch %dx%d · (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	dst = prepDst(dst, a.Rows, b.Rows, "MulTInto")
	if useParallel(a.Rows*a.Cols*b.Rows, a.Rows) {
		ShardRows(a.Rows, func(lo, hi int) { mulTRows(dst, a, b, lo, hi) })
	} else {
		mulTRows(dst, a, b, 0, a.Rows)
	}
	return dst
}

// TMulInto computes aᵀ·b into dst (allocating it when nil) and returns dst,
// without materialising the transpose. dst must not alias a or b.
func TMulInto(dst, a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("mat: TMul inner mismatch (%dx%d)ᵀ · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	dst = prepDst(dst, a.Cols, b.Cols, "TMulInto")
	if useParallel(a.Rows*a.Cols*b.Cols, a.Cols) {
		ShardRows(a.Cols, func(lo, hi int) { tMulRows(dst, a, b, lo, hi) })
	} else {
		tMulRows(dst, a, b, 0, a.Cols)
	}
	return dst
}
