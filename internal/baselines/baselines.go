// Package baselines re-implements the comparison frameworks of the paper's
// evaluation (§V): the classical KNN/GPC/DNN localizers of Fig 1 and the four
// state-of-the-art frameworks of Fig 6 — AdvLoc [24] (DNN with adversarial
// training), SANGRIA [19] (stacked autoencoder + gradient-boosted trees),
// ANVIL [17] (multi-head attention), and WiDeep [14] (denoising autoencoder +
// Gaussian-process classifier). Each is rebuilt from its source paper's
// architecture description at the same scale as CALLOC and exposes the common
// Localizer interface consumed by the experiment drivers.
package baselines

import (
	"calloc/internal/mat"
)

// Localizer is a fitted indoor-localization model: it maps a batch of
// normalised RSS fingerprints to reference-point predictions.
type Localizer interface {
	Name() string
	Predict(x *mat.Matrix) []int
}

// Differentiable is implemented by localizers that expose white-box input
// gradients; the attack package uses it directly. Non-differentiable models
// are attacked through a trained surrogate (attack.NewSurrogate).
type Differentiable interface {
	InputGradient(x *mat.Matrix, labels []int) *mat.Matrix
}
