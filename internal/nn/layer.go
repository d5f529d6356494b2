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
func (d *Dense) Backward(gradOut *mat.Matrix) *mat.Matrix {
	gw := mat.TMulInto(mat.GetScratch(d.W.W.Rows, d.W.W.Cols), d.lastX, gradOut)
	d.W.G.AddInPlace(gw)
	mat.PutScratch(gw)
	for i := 0; i < gradOut.Rows; i++ {
		for j, v := range gradOut.Row(i) {
			d.B.G.Data[j] += v
		}
	}
	return mat.MulT(gradOut, d.W.W)
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
func (r *ReLU) Backward(gradOut *mat.Matrix) *mat.Matrix {
	dst := mat.New(gradOut.Rows, gradOut.Cols)
	for i, v := range r.lastX.Data {
		if v > 0 {
			dst.Data[i] = gradOut.Data[i]
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
