package nn

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"

	"calloc/internal/mat"
)

// Network is an ordered stack of layers trained end to end.
type Network struct {
	Layers []Layer
}

// NewNetwork builds a network from the given layers.
func NewNetwork(layers ...Layer) *Network { return &Network{Layers: layers} }

// Forward runs every layer in order. train selects train-time behaviour for
// stochastic layers (dropout, noise).
func (n *Network) Forward(x *mat.Matrix, train bool) *mat.Matrix {
	for _, l := range n.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Inferencer is implemented by layers whose eval-mode forward pass writes no
// layer state, making it safe to run concurrently with other Infer calls on
// the same layer. Backward must never follow an Infer call: inference leaves
// the training caches untouched.
type Inferencer interface {
	Infer(x *mat.Matrix) *mat.Matrix
}

// Infer runs an eval-mode forward pass without disturbing any training
// caches. Layers that do not implement Inferencer fall back to Forward(x,
// false); see ConcurrentSafe for whether the whole stack is cache-free.
func (n *Network) Infer(x *mat.Matrix) *mat.Matrix {
	for _, l := range n.Layers {
		if inf, ok := l.(Inferencer); ok {
			x = inf.Infer(x)
		} else {
			x = l.Forward(x, false)
		}
	}
	return x
}

// ConcurrentSafe reports whether every layer implements Inferencer, i.e.
// whether Infer may be called from multiple goroutines simultaneously.
func (n *Network) ConcurrentSafe() bool {
	for _, l := range n.Layers {
		if _, ok := l.(Inferencer); !ok {
			return false
		}
	}
	return true
}

// Backward propagates gradOut through the stack in reverse, accumulating
// parameter gradients, and returns the gradient with respect to the network
// input (used by the white-box attacks).
func (n *Network) Backward(gradOut *mat.Matrix) *mat.Matrix {
	for i := len(n.Layers) - 1; i >= 0; i-- {
		gradOut = n.Layers[i].Backward(gradOut)
	}
	return gradOut
}

// Params returns every trainable parameter in the stack.
func (n *Network) Params() []*Param {
	var ps []*Param
	for _, l := range n.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// NumParams returns the total number of trainable scalars.
func (n *Network) NumParams() int { return CountParams(n.Params()) }

// ZeroGrads clears all accumulated gradients.
func (n *Network) ZeroGrads() {
	for _, p := range n.Params() {
		p.ZeroGrad()
	}
}

// Predict returns the argmax class for every row of x.
func (n *Network) Predict(x *mat.Matrix) []int {
	logits := n.Forward(x, false)
	out := make([]int, logits.Rows)
	for i := range out {
		out[i] = mat.ArgMax(logits.Row(i))
	}
	return out
}

// InputGradient computes ∂loss/∂x for the softmax cross-entropy loss at the
// given labels, without disturbing accumulated parameter training state
// beyond adding to the gradients (callers should ZeroGrads afterwards if they
// are mid-training). The network is run in eval mode, matching how an
// adversary observes the deployed model.
func (n *Network) InputGradient(x *mat.Matrix, labels []int) *mat.Matrix {
	logits := n.Forward(x, false)
	_, grad := SoftmaxCrossEntropy(logits, labels)
	g := n.Backward(grad)
	n.ZeroGrads()
	return g
}

// Snapshot returns a deep copy of all parameter values, used by the adaptive
// curriculum to revert to the best-performing weights.
func (n *Network) Snapshot() [][]float64 {
	ps := n.Params()
	out := make([][]float64, len(ps))
	for i, p := range ps {
		out[i] = append([]float64(nil), p.W.Data...)
	}
	return out
}

// Restore copies a snapshot back into the parameters.
func (n *Network) Restore(snap [][]float64) {
	ps := n.Params()
	if len(snap) != len(ps) {
		panic(fmt.Sprintf("nn: Restore snapshot has %d tensors, network has %d", len(snap), len(ps)))
	}
	for i, p := range ps {
		if len(snap[i]) != len(p.W.Data) {
			panic(fmt.Sprintf("nn: Restore tensor %d size %d != %d", i, len(snap[i]), len(p.W.Data)))
		}
		copy(p.W.Data, snap[i])
		p.NoteUpdate()
	}
}

// savedParam is the gob wire form of one parameter.
type savedParam struct {
	Name       string
	Rows, Cols int
	Data       []float64
}

// MarshalWeights serialises all parameter values (not gradients) with gob.
func (n *Network) MarshalWeights() ([]byte, error) {
	var sp []savedParam
	for _, p := range n.Params() {
		sp = append(sp, savedParam{p.Name, p.W.Rows, p.W.Cols, p.W.Data})
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(sp); err != nil {
		return nil, fmt.Errorf("nn: encode weights: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalWeights loads weights previously produced by MarshalWeights into a
// network with an identical architecture. Every tensor is validated — shape,
// element count, finiteness — before any is copied, so a rejected blob leaves
// the network exactly as it was.
func (n *Network) UnmarshalWeights(data []byte) error {
	var sp []savedParam
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&sp); err != nil {
		return fmt.Errorf("nn: decode weights: %w", err)
	}
	ps := n.Params()
	if len(sp) != len(ps) {
		return fmt.Errorf("nn: weight count mismatch: file has %d tensors, network has %d", len(sp), len(ps))
	}
	for i, p := range ps {
		s := sp[i]
		if s.Rows != p.W.Rows || s.Cols != p.W.Cols {
			return fmt.Errorf("nn: tensor %q shape mismatch: file %dx%d, network %dx%d",
				s.Name, s.Rows, s.Cols, p.W.Rows, p.W.Cols)
		}
		if len(s.Data) != len(p.W.Data) {
			return fmt.Errorf("nn: tensor %q has %d values, want %d", s.Name, len(s.Data), len(p.W.Data))
		}
		for j, v := range s.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("nn: tensor %q value %d is %v", s.Name, j, v)
			}
		}
	}
	for i, p := range ps {
		copy(p.W.Data, sp[i].Data)
		p.NoteUpdate()
	}
	return nil
}
