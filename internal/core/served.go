package core

import (
	"slices"

	"calloc/internal/mat"
	"calloc/internal/nn"
)

// served is the immutable form of a model that its predictors run: the three
// weight-side GEMM operands packed at the serving precision, the transposed
// key projection of the attention memory, and copies of everything else a
// query reads. Model.compile builds one at every hand-over
// (RefreshMemoryKeys) and nothing writes it afterwards, so an in-place
// training step on the model cannot change what it serves until the next
// hand-over, and any number of predictors may read it at once.
type served struct {
	embedW, wq, fcW *mat.Packed // embedC.W, attn.Wq, fc.W
	kpT             *mat.Packed // kpᵀ, dk×M: the scores GEMM streams its rows
	embedB, fcB     []float64
	labels          []int // RP class of each memory row: the one-hot value matrix
	classes         int
	scale           float64 // 1/√AttnDim
	f32             bool    // round the value mix as the float32 GEMM it replaces
}

// compile snapshots the current weights and memory keys for serving. The
// model must have memory.
func (m *Model) compile() *served {
	prec := m.Cfg.Precision
	return &served{
		embedW:  mat.PackPrec(m.denseC.W.W, prec),
		wq:      mat.PackPrec(m.wq.W, prec),
		fcW:     mat.PackPrec(m.denseF.W.W, prec),
		kpT:     mat.PackPrec(m.kp.Transpose(), prec),
		embedB:  slices.Clone(m.denseC.B.W.Data),
		fcB:     slices.Clone(m.denseF.B.W.Data),
		labels:  slices.Clone(m.memLabels),
		classes: m.Cfg.NumRPs,
		scale:   m.attnScale(),
		f32:     prec == mat.PrecFloat32,
	}
}

// logits runs Fig 3's online phase for the query rows x with every temporary
// drawn from ws: embed into H^C (bias and ReLU fused into the product),
// project the queries, score them against the memory keys, softmax each row,
// scatter the weights over the memory labels, and classify. The result is
// valid until ws is Reset.
func (s *served) logits(ws *nn.Workspace, x *mat.Matrix) *mat.Matrix {
	hc := mat.MulPackedBiasActInto(ws.Take(x.Rows, s.embedW.Cols()), x, s.embedW, s.embedB, mat.ActReLU)
	qp := mat.MulPackedInto(ws.Take(x.Rows, s.wq.Cols()), hc, s.wq)
	scores := mat.MulPackedInto(ws.Take(x.Rows, s.kpT.Cols()), qp, s.kpT)
	scores.ScaleInPlace(s.scale)
	for i := 0; i < scores.Rows; i++ {
		mat.SoftmaxRow(scores.Row(i), scores.Row(i))
	}
	att := mixOneHotInto(ws.Take(x.Rows, s.classes), scores, s.labels, s.f32)
	return mat.MulPackedBiasActInto(ws.Take(x.Rows, s.fcW.Cols()), att, s.fcW, s.fcB, mat.ActIdentity)
}

// mixOneHotInto computes dst = w·V for the one-hot value matrix V whose row
// m is the unit vector of class labels[m], and returns dst: a product with a
// one-hot panel is exactly the scatter dst[r][labels[m]] += w[r][m], with m
// ascending. With f32 set each sum is rounded to float32 at every add, which
// reproduces bit for bit the float32 packed GEMM it replaces (every product
// with a one-hot entry is exact, and that kernel adds in ascending m too);
// otherwise it accumulates in float64. dst must be w.Rows × (max label + 1)
// or wider and must not alias w.
//
//calloc:noalloc
func mixOneHotInto(dst, w *mat.Matrix, labels []int, f32 bool) *mat.Matrix {
	if len(labels) != w.Cols || dst.Rows != w.Rows {
		panic("core: mixOneHotInto shape mismatch") //calloc:allow the message boxes only on the caller-bug panic path
	}
	for r := 0; r < w.Rows; r++ {
		orow := dst.Data[r*dst.Cols : (r+1)*dst.Cols]
		wrow := w.Data[r*w.Cols : (r+1)*w.Cols]
		for j := range orow {
			orow[j] = 0
		}
		if f32 {
			// orow holds float32 values exactly, so narrowing it back is exact.
			for m, l := range labels {
				orow[l] = float64(float32(orow[l]) + float32(wrow[m]))
			}
		} else {
			for m, l := range labels {
				orow[l] += wrow[m]
			}
		}
	}
	return dst
}
