package core

import (
	"fmt"

	"calloc/internal/mat"
	"calloc/internal/nn"
)

// Predictor is a reusable inference handle over a model: it owns the scratch
// workspace of the allocation-free forward pass, so the steady-state
// single-query path (PredictInto on a stable shape) performs zero heap
// allocations. Each call runs the model's current serving snapshot, which
// RefreshMemoryKeys compiles at hand-over and nothing mutates afterwards:
// training the model in place changes what a predictor serves only at the
// next RefreshMemoryKeys, which must not run concurrently with prediction (a
// served model is replaced whole, through localizer.Registry.Swap).
//
// A Predictor is NOT safe for concurrent use — it exists precisely to hold
// the mutable scratch state that the snapshot keeps out of the model. Create
// one per goroutine (they are cheap: buffers grow lazily), or use the
// model's pooled Predict/PredictBatchInto entry points.
type Predictor struct {
	m  *Model
	ws *nn.Workspace
}

// Predictor returns a new inference handle for the model.
func (m *Model) Predictor() *Predictor {
	return &Predictor{m: m, ws: nn.NewWorkspace()}
}

// logits runs the serving snapshot over x. The result is valid until the
// next call on this predictor.
func (p *Predictor) logits(x *mat.Matrix) *mat.Matrix {
	s := p.m.served
	if s == nil {
		panic("core: model has no memory; call SetMemory first")
	}
	p.ws.Reset()
	return s.logits(p.ws, x)
}

// maxRetainedRows is the largest PredictBatchInto call whose workspace
// buffers a predictor keeps for reuse. The attention scores alone are rows ×
// memory floats, so one evaluation-sized call (quick-train scoring, the
// trainer's gate) would otherwise pin tens of MB in every pooled handle for
// the life of the model. Serving batches (MaxBatch 32, 64-row wire batches)
// sit well below it and keep their buffers.
const maxRetainedRows = 128

// PredictBatchInto localises every row of x into dst and returns it, running
// inline on the calling goroutine at any batch size: serving parallelism is
// the engine's workers, one batch each. A nil dst is allocated; otherwise
// len(dst) must equal x.Rows. After the first call warms the workspace, a
// stable shape performs zero heap allocations. A call of more than
// maxRetainedRows rows gives its workspace buffers back when it is done.
func (p *Predictor) PredictBatchInto(dst []int, x *mat.Matrix) []int {
	if dst == nil {
		dst = make([]int, x.Rows)
	} else if len(dst) != x.Rows {
		panic(fmt.Sprintf("core: prediction destination length %d, want %d", len(dst), x.Rows))
	}
	logits := p.logits(x)
	for i := 0; i < logits.Rows; i++ {
		dst[i] = mat.ArgMax(logits.Row(i))
	}
	if x.Rows > maxRetainedRows {
		p.ws.Release()
	}
	return dst
}
