package core

import (
	"fmt"
	"math/rand"
	"sync"

	"calloc/internal/fingerprint"
	"calloc/internal/mat"
	"calloc/internal/nn"
)

// Model is the CALLOC network of §IV: two embedding networks, a scaled
// dot-product attention head over the fingerprint database, and a final
// fully connected classifier.
type Model struct {
	Cfg Config

	embedC *nn.Network        // curriculum-branch embedding (queries)
	embedO *nn.Network        // original-branch embedding (keys), with dropout+noise
	attn   *nn.CrossAttention // Q=H^C, K=H^O, V=RP one-hots
	fc     *nn.Network        // final classifier over RP classes

	// Direct handles into the networks above for the sharded trainer and the
	// Into-style gradient path, which hand-roll the forward/backward math
	// instead of going through the caching Layer interface.
	denseC, denseO, denseF *nn.Dense
	reluC                  *nn.ReLU

	// Attention memory: the offline fingerprint database.
	memX      *mat.Matrix // clean fingerprints (M×NumAPs)
	memLabels []int       // RP label of each memory row
	memV      *mat.Matrix // one-hot RP labels (M×NumRPs), for the training forward pass
	memKeys   *mat.Matrix // cached eval-mode EmbedO(memX), refreshed after training

	// served is what predictors run, compiled by RefreshMemoryKeys; nil
	// until the model has memory.
	served *served

	// predPool recycles Predictor handles (and their workspaces) for the
	// pooled Predict/PredictBatchInto entry points.
	predPool sync.Pool

	rng *rand.Rand
}

// NewModel constructs an untrained CALLOC model.
func NewModel(cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &Model{Cfg: cfg, rng: rng}
	m.denseC = nn.NewDense("embedC", cfg.NumAPs, cfg.EmbedDim, rng)
	m.reluC = &nn.ReLU{}
	m.embedC = nn.NewNetwork(m.denseC, m.reluC)
	m.denseO = nn.NewDense("embedO", cfg.NumAPs, cfg.EmbedDim, rng)
	m.embedO = nn.NewNetwork(
		m.denseO,
		&nn.ReLU{},
		nn.NewDropout(cfg.DropoutRate, rng),
		nn.NewGaussianNoise(cfg.NoiseSigma, rng),
	)
	m.attn = nn.NewCrossAttention("attn", cfg.EmbedDim, cfg.AttnDim, rng)
	m.denseF = nn.NewDense("fc", cfg.NumRPs, cfg.NumRPs, rng)
	m.fc = nn.NewNetwork(m.denseF)
	return m, nil
}

// SetMemory installs the offline fingerprint database as attention memory.
// With MemoryPerClass > 0 the database is subsampled to at most that many
// fingerprints per RP (ablation lever; the paper uses the full database).
func (m *Model) SetMemory(db []fingerprint.Sample) error {
	if len(db) == 0 {
		return fmt.Errorf("core: empty memory database")
	}
	samples := db
	if m.Cfg.MemoryPerClass > 0 {
		perClass := make(map[int]int)
		samples = samples[:0:0]
		for _, s := range db {
			if perClass[s.RP] < m.Cfg.MemoryPerClass {
				perClass[s.RP]++
				samples = append(samples, s)
			}
		}
	}
	if len(samples[0].RSS) != m.Cfg.NumAPs {
		return fmt.Errorf("core: memory has %d features, model expects %d", len(samples[0].RSS), m.Cfg.NumAPs)
	}
	m.memX = fingerprint.X(samples)
	m.memLabels = fingerprint.Labels(samples)
	m.memV = nn.OneHot(m.memLabels, m.Cfg.NumRPs)
	m.RefreshMemoryKeys()
	return nil
}

// MemorySize returns the number of fingerprints serving as attention memory.
func (m *Model) MemorySize() int {
	if m.memX == nil {
		return 0
	}
	return m.memX.Rows
}

// RefreshMemoryKeys recomputes the eval-mode key embeddings of the memory
// database and hands the current weights over to serving: it compiles the
// snapshot every predictor of the model runs. SetMemory, UnmarshalWeights and
// the end of Train call it; after an in-place weight update the model keeps
// serving its previous snapshot until it is called.
func (m *Model) RefreshMemoryKeys() {
	m.memKeys = m.embedO.Forward(m.memX, false)
	m.served = m.compile()
}

// Params returns every trainable parameter of the model.
func (m *Model) Params() []*nn.Param {
	var ps []*nn.Param
	ps = append(ps, m.embedC.Params()...)
	ps = append(ps, m.embedO.Params()...)
	ps = append(ps, m.attn.Params()...)
	ps = append(ps, m.fc.Params()...)
	return ps
}

// NumParams returns the trainable-parameter count (§V.A reports 65 239 for
// the paper's dimensions; see PaperConfig).
func (m *Model) NumParams() int { return nn.CountParams(m.Params()) }

// ParamBreakdown returns the §V.A decomposition: embedding, attention and
// final-layer parameter counts.
func (m *Model) ParamBreakdown() (embed, attn, fc int) {
	embed = nn.CountParams(m.embedC.Params()) + nn.CountParams(m.embedO.Params())
	attn = nn.CountParams(m.attn.Params())
	fc = nn.CountParams(m.fc.Params())
	return embed, attn, fc
}

// ModelSizeKB returns the deployed model size in kilobytes assuming float32
// weights, the figure the paper quotes as 254.84 kB.
func (m *Model) ModelSizeKB() float64 { return float64(m.NumParams()) * 4 / 1024 }

// Footprint reports the serving precision and the resident byte size of the
// packed snapshots the inference path actually streams per query: the three
// weight-side GEMM operands (embedC.W, attn.Wq, fc.W) plus the packed memory
// key projection. Biases, the memory labels the value mix scatters over, and
// training-only tensors (embedO, Wk, gradients, the one-hot memV) are
// excluded — this is the per-query bandwidth footprint
// that decides how many {floor, backend} models stay hot in cache, surfaced
// through /v1/models via localizer.FootprintReporter. A model without memory
// serves nothing and reports 0 bytes.
func (m *Model) Footprint() (precision string, weightBytes int64) {
	if s := m.served; s != nil {
		for _, p := range []*mat.Packed{s.embedW, s.wq, s.fcW, s.kpT} {
			weightBytes += p.WeightBytes()
		}
	}
	return m.Cfg.Precision.String(), weightBytes
}

// Logits runs the inference path of Fig 3's online phase: embed the unknown
// fingerprint into H^C, attend over the cached database keys, and classify.
func (m *Model) Logits(x *mat.Matrix) *mat.Matrix {
	if m.memKeys == nil {
		panic("core: model has no memory; call SetMemory first")
	}
	hc := m.embedC.Forward(x, false)
	att := m.attn.Forward(hc, m.memKeys, m.memV)
	return m.fc.Forward(att, false)
}

// Predict returns the RP class for every row of x. It delegates to a pooled
// Predictor handle: the forward pass draws all temporaries from the handle's
// workspace, multiplies against the model's compiled serving snapshot and
// runs inline on the calling goroutine. Callers that localise repeatedly
// should use PredictBatchInto (or hold their own Predictor) to avoid the
// per-call result allocation.
func (m *Model) Predict(x *mat.Matrix) []int { return m.PredictBatchInto(nil, x) }

// PredictBatchInto evaluates every row of x into dst and returns it, drawing
// a pooled Predictor handle for the call; see Predict. A nil dst is
// allocated; otherwise len(dst) must equal x.Rows. Safe for concurrent
// callers (each call owns its handle for the duration).
func (m *Model) PredictBatchInto(dst []int, x *mat.Matrix) []int {
	p := m.getPredictor()
	defer m.putPredictor(p)
	return p.PredictBatchInto(dst, x)
}

// getPredictor draws a pooled inference handle; return it with putPredictor.
//
//calloc:noalloc
func (m *Model) getPredictor() *Predictor {
	//calloc:handoff the handle is caller-owned until putPredictor
	if v := m.predPool.Get(); v != nil {
		return v.(*Predictor)
	}
	return m.Predictor() //calloc:allow pool-miss cold path; steady state hits the pool
}

//calloc:noalloc
func (m *Model) putPredictor(p *Predictor) { m.predPool.Put(p) }

// InputGradient exposes ∂CE/∂x for white-box attacks against CALLOC itself.
// The memory keys are fixed (as they are in a deployed model), so the
// gradient flows through the query path: fc → attention → EmbedC.
func (m *Model) InputGradient(x *mat.Matrix, labels []int) *mat.Matrix {
	return m.InputGradientInto(nil, x, labels)
}

// InputGradientInto is InputGradient with the result written into dst (nil
// allocates) and the last backward stage's temporaries drawn from the scratch
// pool, satisfying attack.GradientIntoModel: a per-epoch FGSM crafting loop
// reusing its destination allocates no full gradient matrix per epoch. Not
// safe for concurrent use with itself or with training (it drives the caching
// Forward/Backward paths); concurrent inference is fine.
func (m *Model) InputGradientInto(dst *mat.Matrix, x *mat.Matrix, labels []int) *mat.Matrix {
	logits := m.Logits(x)
	_, g := nn.SoftmaxCrossEntropy(logits, labels)
	gAtt := m.fc.Backward(g)
	dq, _ := m.attn.Backward(gAtt)
	dRelu := m.reluC.BackwardInto(dq, mat.GetScratch(dq.Rows, dq.Cols))
	dst = m.denseC.BackwardInto(dRelu, dst)
	mat.PutScratch(dRelu)
	m.zeroGrads()
	return dst
}

// MarshalWeights serialises every trainable parameter with gob for
// deployment; load into an identically configured model with
// UnmarshalWeights.
func (m *Model) MarshalWeights() ([]byte, error) {
	return networkOf(m).MarshalWeights()
}

// UnmarshalWeights restores weights saved by MarshalWeights and refreshes the
// cached memory keys (when memory is installed).
func (m *Model) UnmarshalWeights(data []byte) error {
	if err := networkOf(m).UnmarshalWeights(data); err != nil {
		return err
	}
	if m.memX != nil {
		m.RefreshMemoryKeys()
	}
	return nil
}

// networkOf wraps the model's parameters in a flat container so weight
// serialisation shares nn.Network's format.
func networkOf(m *Model) *nn.Network {
	return nn.NewNetwork(&paramHolder{m.Params()})
}

// paramHolder is a no-op layer exposing an arbitrary parameter list.
type paramHolder struct{ ps []*nn.Param }

func (p *paramHolder) Forward(x *mat.Matrix, _ bool) *mat.Matrix { return x }
func (p *paramHolder) Backward(gradOut *mat.Matrix) *mat.Matrix  { return gradOut }
func (p *paramHolder) Params() []*nn.Param                       { return p.ps }

func (m *Model) zeroGrads() {
	for _, p := range m.Params() {
		p.ZeroGrad()
	}
}

// snapshotInto copies the current weights into dst, reusing its backing
// slices when the shapes line up (the trainer snapshots up to once per
// epoch, so buffer reuse keeps the hot loop allocation-free). Passing nil
// allocates a fresh snapshot.
func (m *Model) snapshotInto(dst [][]float64) [][]float64 {
	ps := m.Params()
	if len(dst) != len(ps) {
		dst = make([][]float64, len(ps))
	}
	for i, p := range ps {
		if len(dst[i]) != len(p.W.Data) {
			dst[i] = make([]float64, len(p.W.Data))
		}
		copy(dst[i], p.W.Data)
	}
	return dst
}

func (m *Model) restore(snap [][]float64) {
	ps := m.Params()
	for i, p := range ps {
		copy(p.W.Data, snap[i])
	}
}

// trainStep runs one full forward/backward pass over a lesson batch.
// xc holds the (possibly adversarial) curriculum fingerprints, xo their clean
// counterparts, and labels the true RPs. It returns the combined loss
// CE + λ·MSE(H^C, H^O) with gradients accumulated into all parameters.
//
// The backward ordering matters because layers cache their last forward
// input: each branch is back-propagated while its cache is still current.
func (m *Model) trainStep(xc, xo *mat.Matrix, labels []int) float64 {
	// Original branch on the clean batch, for the hyperspace-consistency
	// MSE loss: the curriculum hyperspace of a (possibly attacked)
	// fingerprint is pulled toward the noise-augmented original hyperspace
	// of its clean counterpart. The target is treated as a constant
	// (stop-gradient), the usual consistency-regularisation form — letting
	// the λ·MSE gradient also drive the original branch would make both
	// embeddings chase the dropout/noise realisations and stall training.
	ho := m.embedO.Forward(xo, true)
	hc := m.embedC.Forward(xc, true)
	mseLoss, mseGradC := nn.MSE(hc, ho)

	// Original branch again on the memory set, producing attention keys.
	// The keys are computed in eval mode: the dropout/noise augmentation of
	// §IV.B regularises the hyperspace consistency objective above, while
	// the attention memory stays stable enough to learn from — randomising
	// the entire database every step would prevent the attention from ever
	// associating queries with reference points.
	memKeys := m.embedO.Forward(m.memX, false)
	att := m.attn.Forward(hc, memKeys, m.memV)
	logits := m.fc.Forward(att, true)
	ceLoss, g := nn.SoftmaxCrossEntropy(logits, labels)

	gAtt := m.fc.Backward(g)
	dq, dmem := m.attn.Backward(gAtt)
	m.embedO.Backward(dmem) // embedO cache = memX: consistent

	// Query branch: attention gradient plus the λ-weighted MSE pull.
	dq.AddScaledInPlace(mseGradC, m.Cfg.HyperspaceLambda)
	m.embedC.Backward(dq) // embedC cache = xc: consistent

	return ceLoss + m.Cfg.HyperspaceLambda*mseLoss
}
