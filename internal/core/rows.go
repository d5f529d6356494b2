package core

import (
	"math"

	"calloc/internal/mat"
	"calloc/internal/nn"
)

// rowPass carries one block of query rows through CALLOC's forward pass and
// the cross-entropy backward: the activations the backward pass reads and the
// gradients it writes. The training step's row shards, the trainer's FGSM
// crafting, Logits and InputGradient all run these rows; they differ only in
// what they add on top. Every product is a row-independent kernel, so a row's
// values do not depend on the block it is computed in.
type rowPass struct {
	hcPre, hc, dhc            *mat.Matrix // rows×E: pre-activation, H^C, ∂/∂H^C
	qp, dQp                   *mat.Matrix // rows×dk: projected queries and their gradient
	s, ds                     *mat.Matrix // rows×M: attention weights and their gradient
	att, logits, gLogit, gAtt *mat.Matrix // rows×C
}

// newRowPass allocates the buffers of a rows-high block. The model must have
// memory.
func (m *Model) newRowPass(rows int) rowPass {
	if m.kp == nil {
		panic("core: model has no memory; call SetMemory first")
	}
	E, dk, C, M := m.Cfg.EmbedDim, m.Cfg.AttnDim, m.Cfg.NumRPs, m.memX.Rows
	return rowPass{
		hcPre: mat.New(rows, E), hc: mat.New(rows, E), dhc: mat.New(rows, E),
		qp: mat.New(rows, dk), dQp: mat.New(rows, dk),
		s: mat.New(rows, M), ds: mat.New(rows, M),
		att: mat.New(rows, C), logits: mat.New(rows, C), gLogit: mat.New(rows, C), gAtt: mat.New(rows, C),
	}
}

// keyProjection runs the memory branch in eval mode into the given buffers
// and returns kp: memPre = memX·Wo + bo, memKeys = relu(memPre),
// kp = memKeys·Wk. The keys are eval-mode by design: the dropout/noise
// augmentation of §IV.B regularises the hyperspace-consistency objective,
// while the attention memory stays stable enough to learn from.
func (m *Model) keyProjection(memPre, memKeys, kp *mat.Matrix) *mat.Matrix {
	mat.MulInto(memPre, m.memX, m.denseO.W.W)
	memPre.AddRowVector(m.denseO.B.W.Data)
	reluInto(memKeys, memPre)
	return mat.MulInto(kp, memKeys, m.wk.W)
}

// forward computes the logits of the query rows x against the key projection
// kp: hc = relu(x·Wc + bc), qp = hc·Wq, s = softmax(qp·kpᵀ/√dk), att = s·V
// over the one-hot memory labels, logits = att·Wf + bf.
func (m *Model) forward(p *rowPass, x, kp *mat.Matrix) {
	mat.MulInto(p.hcPre, x, m.denseC.W.W)
	p.hcPre.AddRowVector(m.denseC.B.W.Data)
	reluInto(p.hc, p.hcPre)
	mat.MulInto(p.qp, p.hc, m.wq.W)
	mat.MulTInto(p.s, p.qp, kp)
	p.s.ScaleInPlace(m.attnScale())
	for i := 0; i < p.s.Rows; i++ {
		mat.SoftmaxRow(p.s.Row(i), p.s.Row(i))
	}
	mat.MulInto(p.att, p.s, m.memV)
	mat.MulInto(p.logits, p.att, m.denseF.W.W)
	p.logits.AddRowVector(m.denseF.B.W.Data)
}

// backwardCE takes the rows' share of the mean cross-entropy over a batch of
// batch rows and back-propagates it, with V and kp held constant, down to
// dhc = ∂CE/∂H^C (before the ReLU mask). It returns the rows' loss partial.
func (m *Model) backwardCE(p *rowPass, labels []int, batch int, kp *mat.Matrix) float64 {
	invB := 1 / float64(batch)
	var ce float64
	for i, y := range labels {
		row := p.logits.Row(i)
		lse := mat.LogSumExp(row)
		ce += (lse - row[y]) * invB
		g := p.gLogit.Row(i)
		for j, v := range row {
			g[j] = math.Exp(v-lse) * invB
		}
		g[y] -= invB
	}
	mat.MulTInto(p.gAtt, p.gLogit, m.denseF.W.W)
	mat.MulTInto(p.ds, p.gAtt, m.memV)
	nn.SoftmaxRowsBackward(p.s, p.ds)
	p.ds.ScaleInPlace(m.attnScale())
	mat.MulInto(p.dQp, p.ds, kp)
	mat.MulTInto(p.dhc, p.dQp, m.wq.W)
	return ce
}

// inputGradient writes ∂CE/∂x of the rows x into dx (nil allocates) and
// returns it: the forward, the CE backward, the ReLU mask and dx = dhc·Wcᵀ.
// No parameter gradient is touched.
func (m *Model) inputGradient(p *rowPass, dx, x *mat.Matrix, labels []int, batch int, kp *mat.Matrix) *mat.Matrix {
	m.forward(p, x, kp)
	m.backwardCE(p, labels, batch, kp)
	reluMask(p.dhc, p.hcPre)
	return mat.MulTInto(dx, p.dhc, m.denseC.W.W)
}

func (m *Model) attnScale() float64 { return 1 / math.Sqrt(float64(m.Cfg.AttnDim)) }

// reluInto sets dst = max(0, pre) element-wise.
func reluInto(dst, pre *mat.Matrix) {
	for i, v := range pre.Data {
		if v > 0 {
			dst.Data[i] = v
		} else {
			dst.Data[i] = 0
		}
	}
}

// reluMask zeroes the gradient d wherever the ReLU input pre was not positive.
func reluMask(d, pre *mat.Matrix) {
	for i, v := range pre.Data {
		if v <= 0 {
			d.Data[i] = 0
		}
	}
}

// rowsOf returns rows [lo, hi) of x as a view.
func rowsOf(x *mat.Matrix, lo, hi int) *mat.Matrix {
	return mat.FromSlice(hi-lo, x.Cols, x.Data[lo*x.Cols:hi*x.Cols])
}
