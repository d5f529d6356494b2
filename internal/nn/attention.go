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
