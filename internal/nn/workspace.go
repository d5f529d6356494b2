package nn

import "calloc/internal/mat"

// Workspace holds the per-layer scratch matrices of the allocation-free
// inference path. Buffers are handed out in Take order and recycled by
// Reset, so a fixed layer stack over stable batch shapes reaches a steady
// state where InferInto performs zero heap allocations: every buffer is
// reused from the previous call.
//
// A Workspace is NOT safe for concurrent use — it is the mutable state that
// the cache-free Infer path deliberately keeps out of the layers. Give each
// goroutine its own workspace (core.Model keeps a pool of Predictor handles
// for exactly this). Matrices returned by Take (and by the InferInto methods
// that use it) remain valid only until the next Reset.
type Workspace struct {
	bufs []*mat.Matrix
	next int
	prec mat.Precision
}

// NewWorkspace returns an empty workspace; buffers are grown on first use.
func NewWorkspace() *Workspace { return &Workspace{} }

// SetPrecision selects the packed-weight precision that InferInto (and the
// attention InferPacked* variants) use for every fused product through this
// workspace. The default is float64 — identical to pre-precision behaviour.
// Activations and workspace buffers stay float64 at every precision; only
// the weight-side snapshots change representation.
func (w *Workspace) SetPrecision(p mat.Precision) { w.prec = p }

// Precision returns the workspace's packed-weight precision.
func (w *Workspace) Precision() mat.Precision { return w.prec }

// Reset recycles every buffer for the next inference pass. Outputs handed
// out since the previous Reset are invalidated.
//
//calloc:noalloc
func (w *Workspace) Reset() { w.next = 0 }

// Release drops every buffer's backing array (the matrix headers stay), so a
// workspace that served one unusually large pass does not pin that pass's
// memory for the rest of its life. Outputs handed out so far are
// invalidated; the next pass grows buffers to its own shape.
func (w *Workspace) Release() {
	for _, m := range w.bufs {
		m.Rows, m.Cols, m.Data = 0, 0, nil
	}
	w.next = 0
}

// Take returns an r×c scratch matrix backed by the workspace. Contents are
// unspecified; Into-style kernels overwrite their destination fully.
//
//calloc:noalloc
func (w *Workspace) Take(r, c int) *mat.Matrix {
	if w.next < len(w.bufs) {
		m := w.bufs[w.next]
		w.next++
		n := r * c
		if cap(m.Data) < n {
			m.Data = make([]float64, n) //calloc:allow workspace cold growth; steady state reuses the buffer
		}
		m.Rows, m.Cols, m.Data = r, c, m.Data[:n]
		return m
	}
	m := mat.New(r, c) //calloc:allow workspace cold growth; steady state reuses the buffer
	w.bufs = append(w.bufs, m)
	w.next++
	return m
}

// fusableActivation maps an activation layer to the mat epilogue that a
// preceding Dense layer can fuse into its output pass.
func fusableActivation(l Layer) (mat.Activation, bool) {
	switch l.(type) {
	case *ReLU:
		return mat.ActReLU, true
	case *Tanh:
		return mat.ActTanh, true
	case *Sigmoid:
		return mat.ActSigmoid, true
	}
	return mat.ActIdentity, false
}

// InferInto runs the eval-mode forward pass using ws for every temporary, so
// steady-state inference allocates nothing. Dense layers multiply against
// their lazily-packed weights with the bias add fused into the product pass,
// and a Dense immediately followed by an activation layer fuses that
// activation into the same pass. Layers outside the fused set fall back to
// Infer/Forward semantics (which may allocate). Like Infer, the pass writes
// no layer caches; the result is valid until ws is Reset.
func (n *Network) InferInto(ws *Workspace, x *mat.Matrix) *mat.Matrix {
	for i := 0; i < len(n.Layers); i++ {
		switch l := n.Layers[i].(type) {
		case *Dense:
			act := mat.ActIdentity
			if i+1 < len(n.Layers) {
				if a, ok := fusableActivation(n.Layers[i+1]); ok {
					act = a
					i++
				}
			}
			x = l.InferActInto(ws, x, act)
		case *ReLU:
			x = x.ApplyInto(ws.Take(x.Rows, x.Cols), relu)
		case *Tanh:
			x = x.ApplyInto(ws.Take(x.Rows, x.Cols), tanh)
		case *Sigmoid:
			x = x.ApplyInto(ws.Take(x.Rows, x.Cols), mat.Sigmoid)
		case *Dropout, *GaussianNoise:
			// Identity at eval time.
		default:
			if inf, ok := l.(Inferencer); ok {
				x = inf.Infer(x)
			} else {
				x = l.Forward(x, false)
			}
		}
	}
	return x
}
