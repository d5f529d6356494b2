package nn

import (
	"math"
	"math/rand"

	"calloc/internal/mat"
)

// Layer is one differentiable stage of a feed-forward network. Forward caches
// whatever Backward needs, so each Backward call must follow the Forward call
// whose activations it differentiates. Backward accumulates parameter
// gradients (into Param.G) and returns the gradient with respect to the
// layer's input.
type Layer interface {
	Forward(x *mat.Matrix, train bool) *mat.Matrix
	Backward(gradOut *mat.Matrix) *mat.Matrix
	Params() []*Param
}

// relu is the element-wise rectifier ReLU.Forward applies.
//
//calloc:noalloc
func relu(v float64) float64 {
	if v > 0 {
		return v
	}
	return 0
}

// Dense is a fully connected layer: y = x·W + b, with W of shape in×out.
type Dense struct {
	W, B  *Param
	lastX *mat.Matrix
}

// NewDense creates an in→out fully connected layer with He-initialised
// weights and zero biases.
func NewDense(name string, in, out int, rng *rand.Rand) *Dense {
	d := &Dense{
		W: NewParam(name+".W", in, out),
		B: NewParam(name+".b", 1, out),
	}
	d.W.HeInit(rng)
	return d
}

// NewDenseXavier creates an in→out layer with Glorot-uniform weights,
// suited to tanh/sigmoid activations.
func NewDenseXavier(name string, in, out int, rng *rand.Rand) *Dense {
	d := &Dense{
		W: NewParam(name+".W", in, out),
		B: NewParam(name+".b", 1, out),
	}
	d.W.XavierInit(rng)
	return d
}

// Forward computes x·W + b.
func (d *Dense) Forward(x *mat.Matrix, _ bool) *mat.Matrix {
	d.lastX = x
	y := mat.Mul(x, d.W.W)
	y.AddRowVector(d.B.W.Data)
	return y
}

// Backward accumulates ∂L/∂W and ∂L/∂b and returns ∂L/∂x.
func (d *Dense) Backward(gradOut *mat.Matrix) *mat.Matrix { return d.BackwardInto(gradOut, nil) }

// BackwardInto is Backward with the input gradient written into dst instead
// of a fresh matrix (nil dst allocates). Parameter gradients accumulate as in
// Backward. It lets gradient consumers that run every epoch — FGSM crafting,
// the sharded trainer — reuse one destination across calls.
func (d *Dense) BackwardInto(gradOut, dst *mat.Matrix) *mat.Matrix {
	gw := mat.TMulInto(mat.GetScratch(d.W.W.Rows, d.W.W.Cols), d.lastX, gradOut)
	d.W.G.AddInPlace(gw)
	mat.PutScratch(gw)
	for i := 0; i < gradOut.Rows; i++ {
		for j, v := range gradOut.Row(i) {
			d.B.G.Data[j] += v
		}
	}
	return mat.MulTInto(dst, gradOut, d.W.W)
}

// Params returns the layer's weight and bias.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// ReLU is the rectified linear activation.
type ReLU struct{ lastX *mat.Matrix }

// Forward applies max(0, x).
func (r *ReLU) Forward(x *mat.Matrix, _ bool) *mat.Matrix {
	r.lastX = x
	return x.Apply(relu)
}

// Backward zeroes the gradient where the input was non-positive.
func (r *ReLU) Backward(gradOut *mat.Matrix) *mat.Matrix { return r.BackwardInto(gradOut, nil) }

// BackwardInto is Backward with the masked gradient written into dst (nil
// allocates); dst may alias gradOut for an in-place mask.
func (r *ReLU) BackwardInto(gradOut, dst *mat.Matrix) *mat.Matrix {
	if dst == nil {
		dst = mat.New(gradOut.Rows, gradOut.Cols)
	}
	for i, v := range r.lastX.Data {
		if v > 0 {
			dst.Data[i] = gradOut.Data[i]
		} else {
			dst.Data[i] = 0
		}
	}
	return dst
}

// Params returns nil: ReLU is stateless.
func (r *ReLU) Params() []*Param { return nil }

// Tanh is the hyperbolic-tangent activation.
type Tanh struct{ lastY *mat.Matrix }

// Forward applies tanh element-wise.
func (t *Tanh) Forward(x *mat.Matrix, _ bool) *mat.Matrix {
	t.lastY = x.Apply(math.Tanh)
	return t.lastY
}

// Backward multiplies by 1−tanh².
func (t *Tanh) Backward(gradOut *mat.Matrix) *mat.Matrix {
	out := mat.New(gradOut.Rows, gradOut.Cols)
	for i, y := range t.lastY.Data {
		out.Data[i] = gradOut.Data[i] * (1 - y*y)
	}
	return out
}

// Params returns nil: Tanh is stateless.
func (t *Tanh) Params() []*Param { return nil }

// Sigmoid is the logistic activation.
type Sigmoid struct{ lastY *mat.Matrix }

// Forward applies 1/(1+e^−x) element-wise via the numerically stable
// two-branch form (mat.Sigmoid): the naive expression exponentiates −v,
// which overflows to +Inf for large negative v and turns the quotient into
// garbage; the stable form never exponentiates a positive argument.
func (s *Sigmoid) Forward(x *mat.Matrix, _ bool) *mat.Matrix {
	s.lastY = x.Apply(mat.Sigmoid)
	return s.lastY
}

// Backward multiplies by y(1−y).
func (s *Sigmoid) Backward(gradOut *mat.Matrix) *mat.Matrix {
	out := mat.New(gradOut.Rows, gradOut.Cols)
	for i, y := range s.lastY.Data {
		out.Data[i] = gradOut.Data[i] * y * (1 - y)
	}
	return out
}

// Params returns nil: Sigmoid is stateless.
func (s *Sigmoid) Params() []*Param { return nil }

// Dropout implements inverted dropout: at train time each activation is
// dropped with probability Rate and survivors are scaled by 1/(1−Rate); at
// eval time it is the identity. CALLOC uses Rate 0.2 in the original-data
// embedding network (paper §V.A).
type Dropout struct {
	Rate float64
	rng  *rand.Rand
	mask *mat.Matrix
}

// NewDropout creates a dropout layer with the given drop probability.
func NewDropout(rate float64, rng *rand.Rand) *Dropout {
	return &Dropout{Rate: rate, rng: rng}
}

// Forward drops activations at train time and is the identity at eval time.
func (d *Dropout) Forward(x *mat.Matrix, train bool) *mat.Matrix {
	if !train || d.Rate <= 0 {
		d.mask = nil
		return x
	}
	keep := 1 - d.Rate
	d.mask = mat.New(x.Rows, x.Cols)
	out := mat.New(x.Rows, x.Cols)
	inv := 1 / keep
	for i, v := range x.Data {
		if d.rng.Float64() < keep {
			d.mask.Data[i] = inv
			out.Data[i] = v * inv
		}
	}
	return out
}

// Backward applies the same mask to the gradient.
func (d *Dropout) Backward(gradOut *mat.Matrix) *mat.Matrix {
	if d.mask == nil {
		return gradOut
	}
	return mat.Hadamard(gradOut, d.mask)
}

// Params returns nil: Dropout is stateless.
func (d *Dropout) Params() []*Param { return nil }

// GaussianNoise adds N(0, Sigma²) noise at train time and is the identity at
// eval time. CALLOC uses Sigma 0.32 in the original-data embedding network to
// simulate environmental and device variation (paper §IV.B, §V.A).
type GaussianNoise struct {
	Sigma float64
	rng   *rand.Rand
}

// NewGaussianNoise creates the noise layer with standard deviation sigma.
func NewGaussianNoise(sigma float64, rng *rand.Rand) *GaussianNoise {
	return &GaussianNoise{Sigma: sigma, rng: rng}
}

// Forward adds noise when training.
func (g *GaussianNoise) Forward(x *mat.Matrix, train bool) *mat.Matrix {
	if !train || g.Sigma <= 0 {
		return x
	}
	out := mat.New(x.Rows, x.Cols)
	for i, v := range x.Data {
		out.Data[i] = v + g.rng.NormFloat64()*g.Sigma
	}
	return out
}

// Backward passes the gradient through unchanged (noise is additive).
func (g *GaussianNoise) Backward(gradOut *mat.Matrix) *mat.Matrix { return gradOut }

// Params returns nil: GaussianNoise is stateless.
func (g *GaussianNoise) Params() []*Param { return nil }
