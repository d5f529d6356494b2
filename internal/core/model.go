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
// fully connected classifier. One row pipeline (rows.go) runs it for the
// training step, FGSM crafting, Logits and InputGradient.
type Model struct {
	Cfg Config

	denseC *nn.Dense // curriculum-branch embedding (queries)
	denseO *nn.Dense // original-branch embedding (keys); dropout+noise at train time
	wq, wk *nn.Param // attention projections: Q=H^C·Wq, K=H^O·Wk, V=RP one-hots
	denseF *nn.Dense // final classifier over RP classes

	// Attention memory: the offline fingerprint database.
	memX      *mat.Matrix // clean fingerprints (M×NumAPs)
	memLabels []int       // RP label of each memory row
	memV      *mat.Matrix // one-hot RP labels (M×NumRPs), for the training forward pass
	kp        *mat.Matrix // cached eval-mode key projection (M×AttnDim), refreshed at hand-over

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
	m.denseO = nn.NewDense("embedO", cfg.NumAPs, cfg.EmbedDim, rng)
	m.wq = nn.NewParam("attn.Wq", cfg.EmbedDim, cfg.AttnDim)
	m.wk = nn.NewParam("attn.Wk", cfg.EmbedDim, cfg.AttnDim)
	m.wq.XavierInit(rng)
	m.wk.XavierInit(rng)
	m.denseF = nn.NewDense("fc", cfg.NumRPs, cfg.NumRPs, rng)
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

// RefreshMemoryKeys recomputes the eval-mode key projection of the memory
// database and hands the current weights over to serving: it compiles the
// snapshot every predictor of the model runs. SetMemory, UnmarshalWeights and
// the end of Train call it; after an in-place weight update the model keeps
// serving its previous snapshot until it is called.
func (m *Model) RefreshMemoryKeys() {
	M, E := m.memX.Rows, m.Cfg.EmbedDim
	memPre, memKeys := mat.GetScratch(M, E), mat.GetScratch(M, E)
	m.kp = m.keyProjection(memPre, memKeys, mat.New(M, m.Cfg.AttnDim))
	mat.PutScratch(memPre)
	mat.PutScratch(memKeys)
	m.served = m.compile()
}

// Params returns every trainable parameter of the model.
func (m *Model) Params() []*nn.Param {
	return []*nn.Param{m.denseC.W, m.denseC.B, m.denseO.W, m.denseO.B, m.wq, m.wk, m.denseF.W, m.denseF.B}
}

// NumParams returns the trainable-parameter count (§V.A reports 65 239 for
// the paper's dimensions; see PaperConfig).
func (m *Model) NumParams() int { return nn.CountParams(m.Params()) }

// ParamBreakdown returns the §V.A decomposition: embedding, attention and
// final-layer parameter counts.
func (m *Model) ParamBreakdown() (embed, attn, fc int) {
	embed = nn.CountParams(m.denseC.Params()) + nn.CountParams(m.denseO.Params())
	return embed, m.wq.Size() + m.wk.Size(), nn.CountParams(m.denseF.Params())
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

// Logits runs the inference path of Fig 3's online phase in float64 through
// the training forward: embed the unknown fingerprint into H^C, attend over
// the cached memory key projection, and classify. It is the reference the
// served snapshot is checked against.
func (m *Model) Logits(x *mat.Matrix) *mat.Matrix {
	p := m.newRowPass(x.Rows)
	m.forward(&p, x, m.kp)
	return p.logits
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
// allocates), satisfying attack.GradientIntoModel. It runs the current
// weights against the key projection of the last hand-over
// (RefreshMemoryKeys) and writes no gradient accumulator, so it may run
// alongside inference; not alongside training.
func (m *Model) InputGradientInto(dst *mat.Matrix, x *mat.Matrix, labels []int) *mat.Matrix {
	p := m.newRowPass(x.Rows)
	return m.inputGradient(&p, dst, x, labels, x.Rows, m.kp)
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
