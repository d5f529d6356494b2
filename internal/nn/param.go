// Package nn is a from-scratch neural-network training framework built for
// this reproduction: dense layers, the activation/noise layers the CALLOC
// paper uses, scaled dot-product and multi-head attention with full reverse-
// mode gradients, softmax cross-entropy and MSE losses, and the Adam
// optimizer. Go's standard library has no deep-learning stack, so the paper's
// entire training pipeline — including the input gradients needed by the
// FGSM/PGD/MIM attacks — is implemented here on top of internal/mat.
package nn

import (
	"math"
	"math/rand"

	"calloc/internal/mat"
)

// Param is one trainable tensor: its value W and accumulated gradient G.
// Layers expose their Params so optimizers can update them in place.
type Param struct {
	Name string
	W    *mat.Matrix
	G    *mat.Matrix
}

// NewParam allocates a named r×c parameter with a zeroed gradient.
func NewParam(name string, r, c int) *Param {
	return &Param{Name: name, W: mat.New(r, c), G: mat.New(r, c)}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() {
	for i := range p.G.Data {
		p.G.Data[i] = 0
	}
}

// Size returns the number of scalar values in the parameter.
func (p *Param) Size() int { return len(p.W.Data) }

// XavierInit fills p.W with Glorot-uniform values, the initialisation used
// for tanh/sigmoid layers.
func (p *Param) XavierInit(rng *rand.Rand) {
	fanIn, fanOut := p.W.Rows, p.W.Cols
	limit := math.Sqrt(6 / float64(fanIn+fanOut))
	for i := range p.W.Data {
		p.W.Data[i] = (rng.Float64()*2 - 1) * limit
	}
}

// HeInit fills p.W with He-normal values, the initialisation used for ReLU
// layers.
func (p *Param) HeInit(rng *rand.Rand) {
	std := math.Sqrt(2 / float64(p.W.Rows))
	for i := range p.W.Data {
		p.W.Data[i] = rng.NormFloat64() * std
	}
}

// CountParams sums the sizes of the given parameters.
func CountParams(ps []*Param) int {
	var n int
	for _, p := range ps {
		n += p.Size()
	}
	return n
}
