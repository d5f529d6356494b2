package nn

import (
	"fmt"
	"math"
	"math/rand"

	"calloc/internal/mat"
)

// SoftmaxRowsBackward computes the gradient through a row-wise softmax in
// place: given s = softmax(z) and dL/ds, it overwrites ds with dL/dz where
// dz_i = s_i·(ds_i − Σ_j ds_j·s_j), and returns ds. In-place is safe because
// each row's dot product is fully reduced before the row is rewritten.
func SoftmaxRowsBackward(s, ds *mat.Matrix) *mat.Matrix {
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
			dZ := SoftmaxRowsBackward(sh, dS)
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
