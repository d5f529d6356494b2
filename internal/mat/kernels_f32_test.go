package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refMulF32 is the float32 product spelled out: each output element summed
// in ascending k from zero, one rounding per product and one per add (the
// explicit conversion forbids fusing them), then the float64 epilogue.
func refMulF32(a, b *Matrix, bias []float64, act Activation) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var acc float32
			for k := 0; k < a.Cols; k++ {
				acc += float32(float32(a.Data[i*a.Cols+k]) * float32(b.Data[k*b.Cols+j]))
			}
			v := float64(acc)
			if bias != nil {
				v += bias[j]
			}
			out.Data[i*b.Cols+j] = activate(v, act)
		}
	}
	return out
}

// f32TestActivations fills an rows×kDim activation matrix whose rows cycle
// through dense, all-zero and ReLU-sparse (half the entries zero, the rest
// positive) — the zero quads the SSE2 path skips and the tile does not.
func f32TestActivations(rng *rand.Rand, rows, kDim int) *Matrix {
	a := New(rows, kDim)
	for i := 0; i < rows; i++ {
		row := a.Data[i*kDim : (i+1)*kDim]
		switch i % 3 {
		case 0:
			for k := range row {
				row[k] = rng.NormFloat64()
			}
		case 2:
			for k := range row {
				if rng.Intn(2) == 0 {
					row[k] = rng.Float64()
				}
			}
		}
	}
	return a
}

func expectSameBits(t *testing.T, got, want *Matrix, label string) {
	t.Helper()
	for i, v := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(v) {
			t.Fatalf("%s: element %d = %v, want %v (bits differ)", label, i, got.Data[i], v)
		}
	}
}

// TestF32TileMatchesAxpy: the AVX2 tile path and the forced SSE2 axpy path
// of the float32 packed product agree bit for bit with each other and with
// the spelled-out ascending-k sum, with and without the fused bias+ReLU
// epilogue, over shapes that exercise full tiles, remainder rows, remainder
// columns, more than one column block and a single inner term.
func TestF32TileMatchesAxpy(t *testing.T) {
	if !hasAVX2 {
		t.Skip("no AVX2 on this CPU: only the SSE2 path exists")
	}
	defer SetAVX2(true)
	rng := rand.New(rand.NewSource(31))
	for _, rows := range []int{1, 3, 4, 5, 64} {
		for _, n := range []int{16, 61, 64, 74, 320} {
			for _, kDim := range []int{1, 7, 156, 320} {
				a := f32TestActivations(rng, rows, kDim)
				b := randomMatrix(rng, kDim, n)
				bias := make([]float64, n)
				for j := range bias {
					bias[j] = rng.NormFloat64()
				}
				p := PackPrec(b, PrecFloat32)
				for _, ep := range []struct {
					bias []float64
					act  Activation
				}{{nil, ActIdentity}, {bias, ActReLU}} {
					label := fmt.Sprintf("%dx%d·%dx%d bias=%t act=%d", rows, kDim, kDim, n, ep.bias != nil, ep.act)
					want := refMulF32(a, b, ep.bias, ep.act)
					SetAVX2(true)
					tile := MulPackedBiasActInto(nil, a, p, ep.bias, ep.act)
					SetAVX2(false)
					sse := MulPackedBiasActInto(nil, a, p, ep.bias, ep.act)
					expectSameBits(t, tile, sse, label+" tile vs sse2")
					expectSameBits(t, sse, want, label+" sse2 vs reference")
				}
			}
		}
	}
}

// TestKernel: the reported kernel follows the switch the products actually
// dispatch on, and SetAVX2 cannot turn on what the CPU lacks.
func TestKernel(t *testing.T) {
	t.Logf("kernel: %s", Kernel())
	if got := Kernel(); (got == "avx2") != useAVX2 {
		t.Fatalf("Kernel() = %q with the AVX2 paths enabled=%t", got, useAVX2)
	}
	defer SetAVX2(SetAVX2(false))
	if got, want := Kernel(), map[bool]string{true: "sse2", false: "generic"}[haveAxpy4F32SSE]; got != want {
		t.Fatalf("AVX2 off: Kernel() = %q, want %q", got, want)
	}
	if SetAVX2(true); useAVX2 != hasAVX2 {
		t.Fatalf("SetAVX2(true) enabled=%t on a CPU with AVX2=%t", useAVX2, hasAVX2)
	}
}
