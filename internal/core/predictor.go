package core

import (
	"fmt"

	"calloc/internal/mat"
	"calloc/internal/nn"
)

// Predictor is a reusable inference handle over a model: it owns the scratch
// workspace of the allocation-free forward pass, so the steady-state
// single-query path (PredictInto on a stable shape) performs zero heap
// allocations. The underlying weights and attention memory are shared with
// the model and read-only during prediction.
//
// A Predictor is NOT safe for concurrent use — it exists precisely to hold
// the mutable scratch state that the cache-free inference path keeps out of
// the model. Create one per goroutine (they are cheap: buffers grow lazily),
// or use the model's pooled Predict/PredictBatch entry points. Weight or
// memory updates (training steps, RefreshMemoryKeys, UnmarshalWeights) must
// not run concurrently with prediction: a served model is never mutated in
// place — the update is built on a clone and hot-swapped in through
// localizer.Registry.Swap.
type Predictor struct {
	m  *Model
	ws *nn.Workspace
}

// Predictor returns a new inference handle for the model. The handle's
// workspace is pinned to the model's serving precision (Cfg.Precision), so
// every fused product it issues draws packed views of that format.
func (m *Model) Predictor() *Predictor {
	ws := nn.NewWorkspace()
	ws.SetPrecision(m.Cfg.Precision)
	return &Predictor{m: m, ws: ws}
}

// logits runs the workspace forward pass: embed the query fingerprints into
// H^C, attend over the cached projected memory keys, classify. The result is
// valid until the next call on this predictor.
func (p *Predictor) logits(x *mat.Matrix) *mat.Matrix {
	m := p.m
	if m.memKeys == nil {
		panic("core: model has no memory; call SetMemory first")
	}
	p.ws.Reset()
	hc := m.embedC.InferInto(p.ws, x)
	att := m.attn.InferPackedTInto(p.ws, hc, m.memKpTP, m.memLabels, m.Cfg.NumRPs)
	return m.fc.InferInto(p.ws, att)
}

// maxRetainedRows is the largest PredictInto call whose workspace buffers a
// predictor keeps for reuse. The attention scores alone are rows × memory
// floats, so one evaluation-sized call (quick-train scoring, the trainer's
// gate) would otherwise pin tens of MB in every pooled handle for the life
// of the model. Serving batches (MaxBatch 32, 64-row wire batches) sit well
// below it and keep their buffers.
const maxRetainedRows = 128

// PredictInto localises every row of x into dst and returns it, running
// inline on the calling goroutine (no batch fan-out). A nil dst is
// allocated; otherwise len(dst) must equal x.Rows. This is the steady-state
// serving path: after the first call warms the workspace and packed weight
// views, it performs zero heap allocations. A call of more than
// maxRetainedRows rows gives its workspace buffers back when it is done.
func (p *Predictor) PredictInto(dst []int, x *mat.Matrix) []int {
	dst = prepPredictDst(dst, x.Rows)
	logits := p.logits(x)
	for i := 0; i < logits.Rows; i++ {
		dst[i] = mat.ArgMax(logits.Row(i))
	}
	if x.Rows > maxRetainedRows {
		p.ws.Release()
	}
	return dst
}

// PredictBatchInto localises every row of x into dst and returns it,
// row-sharding large batches across up to mat.Parallelism() goroutines (one
// shared worker budget with the parallel kernels). Secondary shards draw
// their own predictors from the model's pool, so the fan-out is race-free;
// results are identical to PredictInto. A nil dst is allocated.
func (p *Predictor) PredictBatchInto(dst []int, x *mat.Matrix) []int {
	dst = prepPredictDst(dst, x.Rows)
	maxShards := x.Rows / predictShardRows
	if maxShards <= 1 {
		return p.PredictInto(dst, x)
	}
	mat.ShardRows(x.Rows, maxShards, func(lo, hi int) {
		sp := p
		if lo != 0 {
			// Secondary shards run on worker goroutines and need their own
			// workspace; the calling goroutine's chunk reuses p itself.
			sp = p.m.getPredictor()
			defer p.m.putPredictor(sp)
		}
		shard := x
		if lo != 0 || hi != x.Rows {
			shard = mat.FromSlice(hi-lo, x.Cols, x.Data[lo*x.Cols:hi*x.Cols])
		}
		sp.PredictInto(dst[lo:hi], shard)
	})
	return dst
}

func prepPredictDst(dst []int, rows int) []int {
	if dst == nil {
		return make([]int, rows)
	}
	if len(dst) != rows {
		panic(fmt.Sprintf("core: prediction destination length %d, want %d", len(dst), rows))
	}
	return dst
}
