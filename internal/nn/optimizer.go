package nn

import (
	"fmt"
	"math"
)

// Adam is the Adam optimizer (Kingma & Ba, 2015) with bias correction.
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	t                     int
	m, v                  map[*Param][]float64
}

// NewAdam creates an Adam optimizer with standard β₁=0.9, β₂=0.999, ε=1e-8.
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[*Param][]float64), v: make(map[*Param][]float64),
	}
}

// Step applies one Adam update with bias-corrected moments.
func (a *Adam) Step(params []*Param) {
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range params {
		m, ok := a.m[p]
		if !ok {
			m = make([]float64, len(p.W.Data))
			a.m[p] = m
			a.v[p] = make([]float64, len(p.W.Data))
		}
		v := a.v[p]
		for i := range p.W.Data {
			g := p.G.Data[i]
			m[i] = a.Beta1*m[i] + (1-a.Beta1)*g
			v[i] = a.Beta2*v[i] + (1-a.Beta2)*g*g
			mh := m[i] / c1
			vh := v[i] / c2
			p.W.Data[i] -= a.LR * mh / (math.Sqrt(vh) + a.Eps)
		}
		p.ZeroGrad()
	}
}

// AdamState is the serialisable snapshot of an Adam optimizer: the annealed
// learning rate, the step counter driving bias correction, and the first and
// second moments in parameter order. It exists so trainer checkpoints can
// resume optimisation mid-curriculum (core.TrainCheckpoint) instead of
// restarting with cold moments, which would spike the effective step size on
// the first resumed update.
type AdamState struct {
	LR, Beta1, Beta2, Eps float64
	T                     int
	M, V                  [][]float64
}

// State captures the optimizer's state for the given parameters, in order.
// Parameters the optimizer has not stepped yet get zero moments.
func (a *Adam) State(params []*Param) AdamState {
	s := AdamState{
		LR: a.LR, Beta1: a.Beta1, Beta2: a.Beta2, Eps: a.Eps, T: a.t,
		M: make([][]float64, len(params)),
		V: make([][]float64, len(params)),
	}
	for i, p := range params {
		s.M[i] = make([]float64, len(p.W.Data))
		s.V[i] = make([]float64, len(p.W.Data))
		copy(s.M[i], a.m[p])
		copy(s.V[i], a.v[p])
	}
	return s
}

// SetState restores a snapshot captured by State onto the same parameter
// list (same order, same shapes). Nil moment slices select zero moments, so
// a hand-built AdamState{LR: lr} acts as a fresh optimizer.
func (a *Adam) SetState(s AdamState, params []*Param) error {
	if len(s.M) != 0 && len(s.M) != len(params) {
		return fmt.Errorf("nn: Adam state has %d moment tensors, want %d", len(s.M), len(params))
	}
	if len(s.V) != len(s.M) {
		return fmt.Errorf("nn: Adam state has %d first moments but %d second moments", len(s.M), len(s.V))
	}
	for i, p := range params {
		if i >= len(s.M) {
			break
		}
		if s.M[i] != nil && len(s.M[i]) != len(p.W.Data) {
			return fmt.Errorf("nn: Adam moment %d has %d values, parameter %q has %d",
				i, len(s.M[i]), p.Name, len(p.W.Data))
		}
		if s.V[i] != nil && len(s.V[i]) != len(p.W.Data) {
			return fmt.Errorf("nn: Adam second moment %d has %d values, parameter %q has %d",
				i, len(s.V[i]), p.Name, len(p.W.Data))
		}
	}
	if s.LR > 0 {
		a.LR = s.LR
	}
	if s.Beta1 > 0 {
		a.Beta1 = s.Beta1
	}
	if s.Beta2 > 0 {
		a.Beta2 = s.Beta2
	}
	if s.Eps > 0 {
		a.Eps = s.Eps
	}
	a.t = s.T
	a.m = make(map[*Param][]float64, len(params))
	a.v = make(map[*Param][]float64, len(params))
	for i, p := range params {
		m := make([]float64, len(p.W.Data))
		v := make([]float64, len(p.W.Data))
		if i < len(s.M) {
			copy(m, s.M[i])
			copy(v, s.V[i])
		}
		a.m[p] = m
		a.v[p] = v
	}
	return nil
}

// ClipGradients scales all gradients down so that their global L2 norm does
// not exceed maxNorm. Returns the pre-clip norm.
func ClipGradients(params []*Param, maxNorm float64) float64 {
	var total float64
	for _, p := range params {
		for _, g := range p.G.Data {
			total += g * g
		}
	}
	norm := math.Sqrt(total)
	if norm > maxNorm && norm > 0 {
		scale := maxNorm / norm
		for _, p := range params {
			for i := range p.G.Data {
				p.G.Data[i] *= scale
			}
		}
	}
	return norm
}
