package nn

import "calloc/internal/mat"

// Workspace holds the scratch matrices of an allocation-free inference pass.
// Buffers are handed out in Take order and recycled by Reset, so a fixed
// sequence of products over stable batch shapes reaches a steady state with
// zero heap allocations: every buffer is reused from the previous pass.
//
// A Workspace is NOT safe for concurrent use. Give each goroutine its own
// (core.Model keeps a pool of Predictor handles for exactly this). Matrices
// returned by Take remain valid only until the next Reset.
type Workspace struct {
	bufs []*mat.Matrix
	next int
}

// NewWorkspace returns an empty workspace; buffers are grown on first use.
func NewWorkspace() *Workspace { return &Workspace{} }

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
