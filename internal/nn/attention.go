package nn

import (
	"fmt"
	"math"
	"math/rand"

	"calloc/internal/mat"
)

// softmaxRowsBackward computes the gradient through a row-wise softmax in
// place: given s = softmax(z) and dL/ds, it overwrites ds with dL/dz where
// dz_i = s_i·(ds_i − Σ_j ds_j·s_j), and returns ds. In-place is safe because
// each row's dot product is fully reduced before the row is rewritten.
func softmaxRowsBackward(s, ds *mat.Matrix) *mat.Matrix {
	for i := 0; i < s.Rows; i++ {
		srow, dsrow := s.Row(i), ds.Row(i)
		var dot float64
		for j, sv := range srow {
			dot += dsrow[j] * sv
		}
		for j, sv := range srow {
			dsrow[j] = sv * (dsrow[j] - dot)
		}
	}
	return ds
}

// SoftmaxRowsBackward is the exported softmax gradient used by the sharded
// trainer in internal/core, which hand-rolls the attention backward pass over
// row shards; see softmaxRowsBackward.
func SoftmaxRowsBackward(s, ds *mat.Matrix) *mat.Matrix { return softmaxRowsBackward(s, ds) }

// CrossAttention is the scaled dot-product attention at the centre of CALLOC
// (paper §IV.C): Attention(Q, K, V) = softmax(QKᵀ/√d_k)·V, where Q is the
// projected curriculum hyperspace H^C of the batch, K is the projected
// original-data hyperspace H^O of a memory set of reference fingerprints, and
// V holds the (constant) one-hot RP labels of that memory set. The output is
// therefore a label-space mixture weighted by hyperspace similarity — a
// differentiable soft-KNN over the fingerprint database.
type CrossAttention struct {
	Wq, Wk *Param
	DK     int

	// caches for Backward
	lastQ, lastK   *mat.Matrix // raw inputs (B×d, M×d)
	lastQp, lastKp *mat.Matrix // projected (B×dk, M×dk)
	lastS          *mat.Matrix // attention weights (B×M)
	lastV          *mat.Matrix // value matrix (M×C), constant
}

// NewCrossAttention creates query/key projections from embedding dimension d
// to attention dimension dk.
func NewCrossAttention(name string, d, dk int, rng *rand.Rand) *CrossAttention {
	ca := &CrossAttention{
		Wq: NewParam(name+".Wq", d, dk),
		Wk: NewParam(name+".Wk", d, dk),
		DK: dk,
	}
	ca.Wq.XavierInit(rng)
	ca.Wk.XavierInit(rng)
	return ca
}

// Forward computes softmax(q·Wq·(k·Wk)ᵀ/√dk)·v.
// q is B×d (queries), k is M×d (memory keys), v is M×C (memory values).
func (ca *CrossAttention) Forward(q, k, v *mat.Matrix) *mat.Matrix {
	if q.Cols != ca.Wq.W.Rows || k.Cols != ca.Wk.W.Rows {
		panic(fmt.Sprintf("nn: CrossAttention dims q%dx%d k%dx%d vs W %dx%d",
			q.Rows, q.Cols, k.Rows, k.Cols, ca.Wq.W.Rows, ca.Wq.W.Cols))
	}
	if k.Rows != v.Rows {
		panic(fmt.Sprintf("nn: CrossAttention memory mismatch K rows %d vs V rows %d", k.Rows, v.Rows))
	}
	ca.lastQ, ca.lastK, ca.lastV = q, k, v
	ca.lastQp = mat.Mul(q, ca.Wq.W)
	ca.lastKp = mat.Mul(k, ca.Wk.W)
	scores := mat.MulT(ca.lastQp, ca.lastKp)
	scores.ScaleInPlace(1 / math.Sqrt(float64(ca.DK)))
	ca.lastS = mat.Softmax(scores)
	return mat.Mul(ca.lastS, v)
}

// AttentionWeights returns the most recent softmax weights (B×M), useful for
// interpretability and tests.
func (ca *CrossAttention) AttentionWeights() *mat.Matrix { return ca.lastS }

// Infer computes the same attention output as Forward in eval mode but
// touches no caches, so it is safe to call concurrently (e.g. from the
// row-sharded batch predictor). All temporaries come from the scratch pool.
func (ca *CrossAttention) Infer(q, k, v *mat.Matrix) *mat.Matrix {
	if k.Cols != ca.Wk.W.Rows {
		panic(fmt.Sprintf("nn: CrossAttention dims k%dx%d vs W %dx%d",
			k.Rows, k.Cols, ca.Wk.W.Rows, ca.Wk.W.Cols))
	}
	kp := mat.MulInto(mat.GetScratch(k.Rows, ca.DK), k, ca.Wk.W)
	out := ca.InferProjected(q, kp, v)
	mat.PutScratch(kp)
	return out
}

// ProjectKeys returns k·Wk, the key projection of Infer, as a standalone
// step. The memory keys of a deployed model are fixed between weight
// updates, so callers evaluating many query batches against one memory
// (core.Model.PredictBatch) project once and reuse the result with
// InferProjected instead of re-projecting per batch shard.
func (ca *CrossAttention) ProjectKeys(k *mat.Matrix) *mat.Matrix {
	return mat.Mul(k, ca.Wk.W)
}

// InferProjected is Infer with the key projection kp = ProjectKeys(k)
// precomputed. Cache-free and safe for concurrent use.
func (ca *CrossAttention) InferProjected(q, kp, v *mat.Matrix) *mat.Matrix {
	if q.Cols != ca.Wq.W.Rows || kp.Cols != ca.DK {
		panic(fmt.Sprintf("nn: CrossAttention dims q%dx%d kp%dx%d vs W %dx%d",
			q.Rows, q.Cols, kp.Rows, kp.Cols, ca.Wq.W.Rows, ca.Wq.W.Cols))
	}
	if kp.Rows != v.Rows {
		panic(fmt.Sprintf("nn: CrossAttention memory mismatch K rows %d vs V rows %d", kp.Rows, v.Rows))
	}
	qp := mat.MulInto(mat.GetScratch(q.Rows, ca.DK), q, ca.Wq.W)
	scores := mat.MulTInto(mat.GetScratch(q.Rows, kp.Rows), qp, kp)
	scores.ScaleInPlace(1 / math.Sqrt(float64(ca.DK)))
	for i := 0; i < scores.Rows; i++ {
		mat.SoftmaxRow(scores.Row(i), scores.Row(i))
	}
	out := mat.Mul(scores, v)
	mat.PutScratch(qp)
	mat.PutScratch(scores)
	return out
}

// InferProjectedInto is InferProjected with every temporary drawn from ws
// instead of the scratch pool, making the steady-state pass allocation-free.
// The query projection multiplies against the lazily-packed Wq view. The
// result is valid until ws is Reset; cache-free and safe for concurrent use
// as long as each goroutine owns its workspace.
func (ca *CrossAttention) InferProjectedInto(ws *Workspace, q, kp, v *mat.Matrix) *mat.Matrix {
	if q.Cols != ca.Wq.W.Rows || kp.Cols != ca.DK {
		panic(fmt.Sprintf("nn: CrossAttention dims q%dx%d kp%dx%d vs W %dx%d",
			q.Rows, q.Cols, kp.Rows, kp.Cols, ca.Wq.W.Rows, ca.Wq.W.Cols))
	}
	if kp.Rows != v.Rows {
		panic(fmt.Sprintf("nn: CrossAttention memory mismatch K rows %d vs V rows %d", kp.Rows, v.Rows))
	}
	qp := mat.MulPackedInto(ws.Take(q.Rows, ca.DK), q, ca.Wq.Packed())
	scores := mat.MulTInto(ws.Take(q.Rows, kp.Rows), qp, kp)
	return ca.attendInto(ws, scores, v)
}

// attendInto finishes an attention pass over precomputed raw scores: scale
// by 1/√dk, softmax each row in place, and mix the value matrix. Shared by
// the projected-key inference variants.
func (ca *CrossAttention) attendInto(ws *Workspace, scores, v *mat.Matrix) *mat.Matrix {
	scores.ScaleInPlace(1 / math.Sqrt(float64(ca.DK)))
	for i := 0; i < scores.Rows; i++ {
		mat.SoftmaxRow(scores.Row(i), scores.Row(i))
	}
	return mat.MulInto(ws.Take(scores.Rows, v.Cols), scores, v)
}

// InferProjectedTInto is InferProjectedInto with the key projection supplied
// transposed: kpT = ProjectKeys(k)ᵀ, a dk×M row-major matrix. The scores
// product Qp·Kpᵀ then runs through the row-streaming axpy kernel instead of
// the dot-product kernel, which measures markedly faster at CALLOC memory
// sizes (the kernel streams kpT's rows contiguously and keeps each score
// tile L1-resident). Deployed models cache kpT once per weight refresh
// (core.Model.RefreshMemoryKeys), so the transpose is off the hot path.
func (ca *CrossAttention) InferProjectedTInto(ws *Workspace, q, kpT, v *mat.Matrix) *mat.Matrix {
	if q.Cols != ca.Wq.W.Rows || kpT.Rows != ca.DK {
		panic(fmt.Sprintf("nn: CrossAttention dims q%dx%d kpT%dx%d vs W %dx%d",
			q.Rows, q.Cols, kpT.Rows, kpT.Cols, ca.Wq.W.Rows, ca.Wq.W.Cols))
	}
	if kpT.Cols != v.Rows {
		panic(fmt.Sprintf("nn: CrossAttention memory mismatch KpT cols %d vs V rows %d", kpT.Cols, v.Rows))
	}
	qp := mat.MulPackedInto(ws.Take(q.Rows, ca.DK), q, ca.Wq.Packed())
	scores := mat.MulInto(ws.Take(q.Rows, kpT.Cols), qp, kpT)
	return ca.attendInto(ws, scores, v)
}

// InferPackedTInto is InferProjectedTInto with the key projection supplied
// as a Packed snapshot — kpT = ProjectKeys(k)ᵀ, packed at the caller's
// serving precision (core.Model.RefreshMemoryKeys rebuilds it per weight
// update) — and the value matrix given by its class labels: the memory's V
// is one-hot, so the value mix is the scatter mixOneHotInto instead of a
// GEMM. With Wq drawn at the workspace precision too, both weight-side GEMMs
// of the attention pass (query projection, scores) stream reduced-precision
// panels; the softmax and every activation row stay float64. Cache-free and
// safe for concurrent use as long as each goroutine owns its workspace.
func (ca *CrossAttention) InferPackedTInto(ws *Workspace, q *mat.Matrix, kpT *mat.Packed, labels []int, classes int) *mat.Matrix {
	if q.Cols != ca.Wq.W.Rows || kpT.Rows() != ca.DK {
		panic(fmt.Sprintf("nn: CrossAttention dims q%dx%d kpT%dx%d vs W %dx%d",
			q.Rows, q.Cols, kpT.Rows(), kpT.Cols(), ca.Wq.W.Rows, ca.Wq.W.Cols))
	}
	if kpT.Cols() != len(labels) {
		panic(fmt.Sprintf("nn: CrossAttention memory mismatch KpT cols %d vs %d labels", kpT.Cols(), len(labels)))
	}
	qp := mat.MulPackedInto(ws.Take(q.Rows, ca.DK), q, ca.Wq.PackedPrec(ws.Precision()))
	scores := mat.MulPackedInto(ws.Take(q.Rows, kpT.Cols()), qp, kpT)
	scores.ScaleInPlace(1 / math.Sqrt(float64(ca.DK)))
	for i := 0; i < scores.Rows; i++ {
		mat.SoftmaxRow(scores.Row(i), scores.Row(i))
	}
	return mixOneHotInto(ws.Take(scores.Rows, classes), scores, labels, ws.Precision() == mat.PrecFloat32)
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
		panic("nn: mixOneHotInto shape mismatch") //calloc:allow the message boxes only on the caller-bug panic path
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

// Backward takes dL/d(output) (B×C) and returns (dL/dq, dL/dk). Parameter
// gradients accumulate into Wq.G and Wk.G. V is treated as constant.
func (ca *CrossAttention) Backward(gradOut *mat.Matrix) (dq, dk *mat.Matrix) {
	// dS = dOut·Vᵀ, turned into dZ in place by the softmax backward.
	dZ := mat.MulTInto(mat.GetScratch(gradOut.Rows, ca.lastV.Rows), gradOut, ca.lastV)
	softmaxRowsBackward(ca.lastS, dZ)
	dZ.ScaleInPlace(1 / math.Sqrt(float64(ca.DK)))
	// Z = Qp·Kpᵀ ⇒ dQp = dZ·Kp, dKp = dZᵀ·Qp.
	dQp := mat.MulInto(mat.GetScratch(dZ.Rows, ca.DK), dZ, ca.lastKp)
	dKp := mat.TMulInto(mat.GetScratch(dZ.Cols, ca.DK), dZ, ca.lastQp)
	gw := mat.TMulInto(mat.GetScratch(ca.Wq.W.Rows, ca.Wq.W.Cols), ca.lastQ, dQp)
	ca.Wq.G.AddInPlace(gw)
	mat.TMulInto(gw, ca.lastK, dKp)
	ca.Wk.G.AddInPlace(gw)
	mat.PutScratch(gw)
	dq = mat.MulT(dQp, ca.Wq.W)
	dk = mat.MulT(dKp, ca.Wk.W)
	mat.PutScratch(dQp)
	mat.PutScratch(dKp)
	mat.PutScratch(dZ)
	return dq, dk
}

// Params returns the projection weights.
func (ca *CrossAttention) Params() []*Param { return []*Param{ca.Wq, ca.Wk} }

// MultiHeadSelfAttention implements the ANVIL-style multi-head attention
// block [17]. The flat input row (length Tokens·Dim) is interpreted as Tokens
// tokens of Dim features; each head projects to Dim/Heads, attends across
// tokens, and the concatenated heads pass through an output projection. It
// satisfies the Layer interface so it can sit inside a Network, which also
// gives the attacks input gradients through the attention weights.
type MultiHeadSelfAttention struct {
	Tokens, Dim, Heads int
	dh                 int
	Wq, Wk, Wv, Wo     *Param

	lastX *mat.Matrix
	// per-sample caches, indexed [sample][head]
	q, k, v, s [][]*mat.Matrix
	concat     []*mat.Matrix
}

// NewMultiHeadSelfAttention creates a self-attention block over tokens×dim
// inputs with the given head count (dim must divide evenly by heads).
func NewMultiHeadSelfAttention(name string, tokens, dim, heads int, rng *rand.Rand) *MultiHeadSelfAttention {
	if dim%heads != 0 {
		panic(fmt.Sprintf("nn: dim %d not divisible by heads %d", dim, heads))
	}
	m := &MultiHeadSelfAttention{
		Tokens: tokens, Dim: dim, Heads: heads, dh: dim / heads,
		Wq: NewParam(name+".Wq", dim, dim),
		Wk: NewParam(name+".Wk", dim, dim),
		Wv: NewParam(name+".Wv", dim, dim),
		Wo: NewParam(name+".Wo", dim, dim),
	}
	m.Wq.XavierInit(rng)
	m.Wk.XavierInit(rng)
	m.Wv.XavierInit(rng)
	m.Wo.XavierInit(rng)
	return m
}

// headSlice extracts head h's columns from a T×Dim matrix as a T×dh copy.
func (m *MultiHeadSelfAttention) headSlice(x *mat.Matrix, h int) *mat.Matrix {
	out := mat.New(x.Rows, m.dh)
	for i := 0; i < x.Rows; i++ {
		copy(out.Row(i), x.Row(i)[h*m.dh:(h+1)*m.dh])
	}
	return out
}

// Forward runs self-attention independently on every row of x, where each
// row is a flattened Tokens×Dim sequence.
func (m *MultiHeadSelfAttention) Forward(x *mat.Matrix, _ bool) *mat.Matrix {
	if x.Cols != m.Tokens*m.Dim {
		panic(fmt.Sprintf("nn: MHSA input cols %d != tokens %d × dim %d", x.Cols, m.Tokens, m.Dim))
	}
	m.lastX = x
	b := x.Rows
	m.q = make([][]*mat.Matrix, b)
	m.k = make([][]*mat.Matrix, b)
	m.v = make([][]*mat.Matrix, b)
	m.s = make([][]*mat.Matrix, b)
	m.concat = make([]*mat.Matrix, b)
	out := mat.New(b, m.Tokens*m.Dim)
	scale := 1 / math.Sqrt(float64(m.dh))
	for i := 0; i < b; i++ {
		xi := mat.FromSlice(m.Tokens, m.Dim, x.Row(i)) // view, not copied
		qf := mat.Mul(xi, m.Wq.W)
		kf := mat.Mul(xi, m.Wk.W)
		vf := mat.Mul(xi, m.Wv.W)
		m.q[i] = make([]*mat.Matrix, m.Heads)
		m.k[i] = make([]*mat.Matrix, m.Heads)
		m.v[i] = make([]*mat.Matrix, m.Heads)
		m.s[i] = make([]*mat.Matrix, m.Heads)
		concat := mat.New(m.Tokens, m.Dim)
		for h := 0; h < m.Heads; h++ {
			qh := m.headSlice(qf, h)
			kh := m.headSlice(kf, h)
			vh := m.headSlice(vf, h)
			scores := mat.MulT(qh, kh)
			scores.ScaleInPlace(scale)
			sh := mat.Softmax(scores)
			oh := mat.Mul(sh, vh)
			for t := 0; t < m.Tokens; t++ {
				copy(concat.Row(t)[h*m.dh:(h+1)*m.dh], oh.Row(t))
			}
			m.q[i][h], m.k[i][h], m.v[i][h], m.s[i][h] = qh, kh, vh, sh
		}
		m.concat[i] = concat
		proj := mat.Mul(concat, m.Wo.W)
		copy(out.Row(i), proj.Data)
	}
	return out
}

// Backward propagates gradients through the attention computation for every
// sample and accumulates the projection-weight gradients.
func (m *MultiHeadSelfAttention) Backward(gradOut *mat.Matrix) *mat.Matrix {
	b := gradOut.Rows
	dx := mat.New(b, m.Tokens*m.Dim)
	scale := 1 / math.Sqrt(float64(m.dh))
	for i := 0; i < b; i++ {
		dOut := mat.FromSlice(m.Tokens, m.Dim, gradOut.Row(i))
		xi := mat.FromSlice(m.Tokens, m.Dim, m.lastX.Row(i))
		// Out = concat·Wo.
		m.Wo.G.AddInPlace(mat.TMul(m.concat[i], dOut))
		dConcat := mat.MulT(dOut, m.Wo.W)
		dQf := mat.New(m.Tokens, m.Dim)
		dKf := mat.New(m.Tokens, m.Dim)
		dVf := mat.New(m.Tokens, m.Dim)
		for h := 0; h < m.Heads; h++ {
			dOh := m.headSlice(dConcat, h)
			sh, vh, qh, kh := m.s[i][h], m.v[i][h], m.q[i][h], m.k[i][h]
			// Oh = S·V.
			dS := mat.MulT(dOh, vh)
			dVh := mat.TMul(sh, dOh)
			dZ := softmaxRowsBackward(sh, dS)
			dZ.ScaleInPlace(scale)
			// Z = Q·Kᵀ.
			dQh := mat.Mul(dZ, kh)
			dKh := mat.TMul(dZ, qh)
			for t := 0; t < m.Tokens; t++ {
				copy(dQf.Row(t)[h*m.dh:(h+1)*m.dh], dQh.Row(t))
				copy(dKf.Row(t)[h*m.dh:(h+1)*m.dh], dKh.Row(t))
				copy(dVf.Row(t)[h*m.dh:(h+1)*m.dh], dVh.Row(t))
			}
		}
		// Qf = X·Wq etc.
		m.Wq.G.AddInPlace(mat.TMul(xi, dQf))
		m.Wk.G.AddInPlace(mat.TMul(xi, dKf))
		m.Wv.G.AddInPlace(mat.TMul(xi, dVf))
		dXi := mat.MulT(dQf, m.Wq.W)
		dXi.AddInPlace(mat.MulT(dKf, m.Wk.W))
		dXi.AddInPlace(mat.MulT(dVf, m.Wv.W))
		copy(dx.Row(i), dXi.Data)
	}
	return dx
}

// Params returns the four projection matrices.
func (m *MultiHeadSelfAttention) Params() []*Param {
	return []*Param{m.Wq, m.Wk, m.Wv, m.Wo}
}
