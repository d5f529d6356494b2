package core

import (
	"fmt"
	"math/rand"

	"calloc/internal/attack"
	"calloc/internal/curriculum"
	"calloc/internal/fingerprint"
	"calloc/internal/mat"
	"calloc/internal/nn"
)

// TrainConfig controls curriculum-adversarial training.
type TrainConfig struct {
	// Lessons is the curriculum; nil selects the paper's DefaultSchedule.
	Lessons []curriculum.Lesson
	// UseCurriculum switches between CALLOC proper and the 'NC' ablation of
	// Fig 5. The curriculum is the mechanism that introduces adversarial
	// lesson data, so "curriculum learning not applied" means conventional
	// training on the attack-free offline database for the same epoch
	// budget (the adversarial-samples-without-curriculum design point is
	// the separate AdvLoc baseline).
	UseCurriculum bool
	// EpochsPerLesson is the training budget per lesson. Every lesson gets
	// its full budget (unless MaxReverts abandons it): ending a lesson once
	// its loss plateaus measurably hurt adversarial robustness at building
	// scale.
	EpochsPerLesson int
	// BatchSize splits every epoch's lesson data into shuffled mini-batches
	// of this many rows with one optimizer step each. Zero (the default)
	// selects full-batch epochs — the paper's regime, one step per epoch.
	// Gradients are always accumulated over fixed-size row shards regardless
	// of batch size; see shardedStep.
	BatchSize int
	// LearningRate for Adam.
	LearningRate float64
	// Patience is the adaptive monitor's divergence threshold.
	Patience int
	// MaxReverts bounds adaptive reverts per lesson to guarantee progress.
	MaxReverts int
	// Seed drives adversarial AP selection and data shuffling.
	Seed int64
	// Resume continues training from a checkpoint instead of lesson 1: the
	// checkpointed weights, optimizer moments, and annealed learning rate
	// are restored and the schedule resumes at Resume.Lesson. The model's
	// architecture must match the checkpoint.
	Resume *TrainCheckpoint
	// OnCheckpoint, when non-nil, receives a freshly captured checkpoint
	// after every completed lesson. The checkpoint owns its tensors — the
	// callback may retain or serialise it without copying.
	OnCheckpoint func(*TrainCheckpoint)
	// Verbose, when non-nil, receives one line per lesson.
	Verbose func(format string, args ...any)

	// epochHook substitutes the entire per-epoch pipeline (lesson data,
	// gradients, optimizer step) with a scripted loss in tests of the
	// lesson-level control flow: revert bookkeeping, ø overrides.
	epochHook func(lesson, epoch, phi int) float64
}

// minOriginalFraction floors the share of clean fingerprints in every lesson
// batch. The paper's final lesson nominally uses 100% attacked data; without
// a clean floor the model forgets the attack-free geometry it learned early
// (catastrophic forgetting), which hurts both clean accuracy and, through it,
// attacked accuracy. A floor of ~0.35 preserves the curriculum's escalation
// while anchoring the clean task.
const minOriginalFraction = 0.35

// DefaultTrainConfig mirrors §IV/§V.A: 10 lessons, adaptive curriculum on.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{
		Lessons:         curriculum.DefaultSchedule(),
		UseCurriculum:   true,
		EpochsPerLesson: 30,
		LearningRate:    0.03,
		Patience:        3,
		MaxReverts:      5,
		Seed:            1,
	}
}

// TrainResult summarises a training run.
type TrainResult struct {
	LessonsCompleted int
	Reverts          int
	FinalLoss        float64
	LossHistory      []float64
}

// Train fits the model to the offline database with the adaptive curriculum
// (§IV.A, §IV.D): lesson data mixes clean fingerprints with FGSM adversarial
// fingerprints crafted against the current model at the lesson's ø and the
// fixed small ε; the monitor reverts to the best weights and eases ø by two
// when the final layer's loss diverges.
//
// Gradients are accumulated over fixed-size row shards fanned out through
// mat.ShardRows (one worker budget with the parallel kernels), with a
// deterministic shard partition and an ordered reduction: a same-seed run
// produces bit-identical weights regardless of mat.SetParallelism. Training
// can be checkpointed per lesson (OnCheckpoint) and resumed (Resume).
func (m *Model) Train(db []fingerprint.Sample, cfg TrainConfig) (TrainResult, error) {
	if len(db) == 0 {
		return TrainResult{}, fmt.Errorf("core: no training data")
	}
	if m.memX == nil {
		if err := m.SetMemory(db); err != nil {
			return TrainResult{}, err
		}
	}
	if cfg.EpochsPerLesson <= 0 {
		cfg.EpochsPerLesson = 30
	}
	if cfg.LearningRate <= 0 {
		cfg.LearningRate = 0.03
	}
	if cfg.MaxReverts <= 0 {
		cfg.MaxReverts = 5
	}
	lessons := cfg.Lessons
	if lessons == nil {
		lessons = curriculum.DefaultSchedule()
	}
	if !cfg.UseCurriculum {
		lessons = noCurriculumSchedule(lessons)
	}
	r, err := m.newTrainRun(db, cfg, lessons)
	if err != nil {
		return TrainResult{}, err
	}
	return r.run()
}

// trainShardRows is the fixed row height of one gradient shard. The shard
// partition depends only on the batch size — never on the worker count — and
// shard partials reduce in shard-index order, which is what makes sharded
// training bit-deterministic across parallelism settings.
const trainShardRows = 32

// trainRun owns the mutable state of one Train call: the optimizer and
// monitor, the adaptive-curriculum bookkeeping, and every reusable buffer of
// the sharded train step, so steady-state epochs stop allocating fresh
// activation and gradient matrices.
type trainRun struct {
	m       *Model
	cfg     TrainConfig
	lessons []curriculum.Lesson
	xo      *mat.Matrix
	labels  []int
	rng     *rand.Rand
	opt     *nn.Adam
	monitor *curriculum.Monitor
	res     TrainResult
	best    [][]float64

	startLesson int
	startPhi    int // ≥ 0 overrides the first resumed lesson's ø

	// Epoch-level reusable buffers.
	adv      *mat.Matrix // adversarial lesson batch (attack.CraftInto dst)
	dropMask []float64   // inverted-dropout realisation for the epoch batch
	noise    []float64   // Gaussian-noise realisation for the epoch batch
	memPre   *mat.Matrix // memory-branch pre-activation (M×E)
	memKeys  *mat.Matrix // relu(memPre) — eval-mode key embeddings
	kp       *mat.Matrix // memKeys·Wk (M×dk)
	dKp      *mat.Matrix // reduced key-projection gradient (M×dk)
	memFresh bool        // the memory branch matches the current weights

	// Shard buffer sets keyed by batch row count (full batches and the
	// mini-batch remainder produce at most two distinct sizes per run).
	shardSets map[int][]*trainShard

	// Mini-batch gather buffers (BatchSize > 0).
	perm           []int
	batchC, batchO *mat.Matrix
	batchL         []int
}

func (m *Model) newTrainRun(db []fingerprint.Sample, cfg TrainConfig, lessons []curriculum.Lesson) (*trainRun, error) {
	r := &trainRun{
		m:         m,
		cfg:       cfg,
		lessons:   lessons,
		xo:        fingerprint.X(db),
		labels:    fingerprint.Labels(db),
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		opt:       nn.NewAdam(cfg.LearningRate),
		monitor:   curriculum.NewMonitor(cfg.Patience),
		startPhi:  -1,
		shardSets: make(map[int][]*trainShard),
	}
	if r.xo.Cols != m.Cfg.NumAPs {
		return nil, fmt.Errorf("core: training data has %d features, model expects %d", r.xo.Cols, m.Cfg.NumAPs)
	}
	if ck := cfg.Resume; ck != nil {
		if err := ck.validate(m, len(lessons)); err != nil {
			return nil, err
		}
		m.restore(ck.Weights)
		if len(ck.Best) > 0 {
			r.best = cloneTensors(ck.Best)
		}
		if err := r.opt.SetState(ck.Opt, m.Params()); err != nil {
			return nil, err
		}
		r.rng = rand.New(rand.NewSource(ck.RngSeed))
		r.startLesson = ck.Lesson
		r.startPhi = ck.Phi
		r.res.LessonsCompleted = ck.LessonsCompleted
		r.res.Reverts = ck.Reverts
		r.res.FinalLoss = ck.FinalLoss
	}
	return r, nil
}

func (r *trainRun) run() (TrainResult, error) {
	m, cfg := r.m, r.cfg
	for li := r.startLesson; li < len(r.lessons); li++ {
		lesson := r.lessons[li]
		phi := lesson.PhiPercent
		if li == r.startLesson && r.startPhi >= 0 {
			phi = r.startPhi
		}
		reverts := 0
		r.monitor.ResetLesson()
		r.best = m.snapshotInto(r.best) // the lesson's best-performing weights (§IV.D)
		lessonSpec := lesson
		if lessonSpec.OriginalFraction < minOriginalFraction {
			lessonSpec.OriginalFraction = minOriginalFraction
		}
		for epoch := 0; epoch < cfg.EpochsPerLesson; epoch++ {
			loss := r.trainEpoch(li, epoch, lessonSpec, phi)
			r.res.LossHistory = append(r.res.LossHistory, loss)

			switch r.monitor.Observe(loss) {
			case curriculum.Snapshot:
				r.best = m.snapshotInto(r.best)
			case curriculum.Revert:
				// The revert-and-ease mechanism is part of the adaptive
				// curriculum (§IV.D); the NC ablation trains through
				// divergence like a conventional loop.
				if !cfg.UseCurriculum {
					break
				}
				m.restore(r.best)
				r.memFresh = false
				phi = curriculum.EasePhi(phi)
				r.res.Reverts++
				reverts++
				if reverts >= cfg.MaxReverts {
					epoch = cfg.EpochsPerLesson // abandon the lesson
				}
			}
		}
		if bl, ok := r.monitor.Best(); ok {
			r.res.FinalLoss = bl
		}
		r.res.LessonsCompleted++
		// Anneal the learning rate as lessons harden: later lessons
		// fine-tune robustness rather than relearn the geometry.
		r.opt.LR *= 0.85
		if cfg.Verbose != nil {
			last := r.res.LossHistory[len(r.res.LossHistory)-1]
			cfg.Verbose("lesson %d (ø=%d%%, ε=%.2f): loss %.4f, reverts so far %d",
				lesson.Number, phi, lesson.Epsilon, last, r.res.Reverts)
		}
		if cfg.OnCheckpoint != nil {
			cfg.OnCheckpoint(r.checkpoint(li + 1))
		}
	}
	m.RefreshMemoryKeys()
	return r.res, nil
}

// trainEpoch runs one epoch of the current lesson: craft the lesson data,
// then take one optimizer step over the full batch, or one per shuffled
// mini-batch when BatchSize is set. Returns the epoch's (row-weighted) loss.
func (r *trainRun) trainEpoch(li, epoch int, lesson curriculum.Lesson, phi int) float64 {
	if r.cfg.epochHook != nil {
		return r.cfg.epochHook(li, epoch, phi)
	}
	xc := r.lessonData(lesson, phi)
	rows := xc.Rows
	bs := r.cfg.BatchSize
	if bs <= 0 || bs >= rows {
		return r.miniBatchStep(xc, r.xo, r.labels)
	}
	r.ensureBatchBuffers(bs, xc.Cols)
	if len(r.perm) != rows {
		r.perm = make([]int, rows)
	}
	for i := range r.perm {
		r.perm[i] = i
	}
	r.rng.Shuffle(rows, func(i, j int) { r.perm[i], r.perm[j] = r.perm[j], r.perm[i] })
	var total float64
	for lo := 0; lo < rows; lo += bs {
		hi := min(lo+bs, rows)
		n := hi - lo
		bc := mat.FromSlice(n, xc.Cols, r.batchC.Data[:n*xc.Cols])
		bo := mat.FromSlice(n, xc.Cols, r.batchO.Data[:n*xc.Cols])
		bl := r.batchL[:n]
		for i, p := range r.perm[lo:hi] {
			copy(bc.Row(i), xc.Row(p))
			copy(bo.Row(i), r.xo.Row(p))
			bl[i] = r.labels[p]
		}
		total += r.miniBatchStep(bc, bo, bl) * float64(n)
	}
	return total / float64(rows)
}

// miniBatchStep accumulates gradients for one batch via the sharded step,
// clips, and applies one optimizer update.
func (r *trainRun) miniBatchStep(xc, xo *mat.Matrix, labels []int) float64 {
	loss := r.shardedStep(xc, xo, labels)
	nn.ClipGradients(r.m.Params(), 5)
	r.opt.Step(r.m.Params())
	r.memFresh = false
	return loss
}

// lessonData builds one epoch's curriculum batch: adversarial FGSM samples at
// the lesson's (possibly adaptively eased) ø for a (1−OriginalFraction) share
// of rows, clean fingerprints for the rest. Attacks are crafted against the
// current model — white-box adversarial training, as in §IV.A ("adversarial
// data is generated using the FGSM technique"). The attack observes the
// eval-mode model through the run itself (see InputGradientInto), and the
// adversarial batch and the crafting gradient reuse the run's buffers across
// epochs.
func (r *trainRun) lessonData(lesson curriculum.Lesson, phi int) *mat.Matrix {
	if phi <= 0 {
		return r.xo
	}
	cfg := attack.Config{
		Epsilon:    lesson.Epsilon,
		PhiPercent: phi,
		Seed:       r.rng.Int63(),
	}
	if r.adv == nil {
		r.adv = mat.New(r.xo.Rows, r.xo.Cols)
	}
	attack.CraftInto(r.adv, attack.FGSM, r, r.xo, r.labels, cfg)
	if lesson.OriginalFraction <= 0 {
		return r.adv
	}
	// Keep a clean share of rows.
	for i := 0; i < r.xo.Rows; i++ {
		if r.rng.Float64() < lesson.OriginalFraction {
			copy(r.adv.Row(i), r.xo.Row(i))
		}
	}
	return r.adv
}

// InputGradient is ∂CE/∂x of the model being trained, in eval mode, with
// the memory branch the run last computed for its weights: it makes the run
// the attack.GradientIntoModel that FGSM crafts lesson data against.
func (r *trainRun) InputGradient(x *mat.Matrix, labels []int) *mat.Matrix {
	return r.InputGradientInto(nil, x, labels)
}

// InputGradientInto is InputGradient written into dst (nil allocates). It
// runs the training step's row shards and shares its memory branch: in a
// full-batch epoch, crafting and the step compute the key projection once.
func (r *trainRun) InputGradientInto(dst *mat.Matrix, x *mat.Matrix, labels []int) *mat.Matrix {
	if dst == nil {
		dst = mat.New(x.Rows, x.Cols)
	}
	r.refreshMemory()
	shards := r.ensureShards(x.Rows)
	mat.ShardRows(len(shards), func(lo, hi int) {
		for _, sh := range shards[lo:hi] {
			r.m.inputGradient(&sh.rowPass, rowsOf(dst, sh.lo, sh.hi), rowsOf(x, sh.lo, sh.hi),
				labels[sh.lo:sh.hi], x.Rows, r.kp)
		}
	})
	return dst
}

// refreshMemory runs the memory branch for the current weights into the
// run's buffers, unless it already has since the last weight change.
func (r *trainRun) refreshMemory() {
	if r.memFresh {
		return
	}
	if r.memPre == nil {
		M, cfg := r.m.memX.Rows, r.m.Cfg
		r.memPre = mat.New(M, cfg.EmbedDim)
		r.memKeys = mat.New(M, cfg.EmbedDim)
		r.kp = mat.New(M, cfg.AttnDim)
		r.dKp = mat.New(M, cfg.AttnDim)
	}
	r.m.keyProjection(r.memPre, r.memKeys, r.kp)
	r.memFresh = true
}

// trainShard holds one fixed row range's pass through the row pipeline, its
// MSE target, and its parameter-gradient and loss partials. Shards only ever
// write their own buffers, so the fan-out is race-free and deterministic.
type trainShard struct {
	lo, hi int
	rowPass
	ho *mat.Matrix // rows×E: the MSE target, then ∂MSE/∂hc

	gWc, gWq, gWf *mat.Matrix // parameter-gradient partials
	gBc, gBf      []float64
	gDKp          *mat.Matrix // key-projection gradient partial (M×dk)
	ce, mse       float64
}

// ensureShards returns the shard set for a batch of B rows, building it on
// first use. The partition is fixed by trainShardRows alone.
func (r *trainRun) ensureShards(B int) []*trainShard {
	if sh, ok := r.shardSets[B]; ok {
		return sh
	}
	cfg := r.m.Cfg
	M := r.m.memX.Rows
	E, dk, C, N := cfg.EmbedDim, cfg.AttnDim, cfg.NumRPs, cfg.NumAPs
	n := (B + trainShardRows - 1) / trainShardRows
	shards := make([]*trainShard, n)
	for i := range shards {
		lo := i * trainShardRows
		hi := min(lo+trainShardRows, B)
		shards[i] = &trainShard{
			lo: lo, hi: hi,
			rowPass: r.m.newRowPass(hi - lo),
			ho:      mat.New(hi-lo, E),
			gWc:     mat.New(N, E), gWq: mat.New(E, dk), gWf: mat.New(C, C),
			gBc: make([]float64, E), gBf: make([]float64, C),
			gDKp: mat.New(M, dk),
		}
	}
	r.shardSets[B] = shards
	return shards
}

// shardedStep computes the full CALLOC training gradient for one batch —
// CE + λ·MSE(H^C, H^O) — with the batch-row work fanned out over fixed-size
// row shards through mat.ShardRows:
//
//  1. The stochastic realisations (dropout mask, Gaussian noise) are drawn
//     sequentially from the model rng, element by element over the whole
//     batch, so sharding never perturbs the random stream.
//  2. The memory branch (eval-mode key embeddings and their projection) is
//     computed once per weight version and shared read-only across shards;
//     in a full-batch epoch the FGSM crafting before the step computed it.
//  3. Each shard runs the row pipeline forward and backward for its rows
//     into its own buffers.
//  4. Shard partials reduce into the parameter gradients in shard-index
//     order; the memory-branch backward (which sums over memory rows, not
//     batch rows) runs once on the reduced key-projection gradient.
//
// Because the partition is fixed and the reduction ordered, a same-seed run
// is bit-identical at any mat.SetParallelism setting.
func (r *trainRun) shardedStep(xc, xo *mat.Matrix, labels []int) float64 {
	m := r.m
	cfg := m.Cfg
	B, E := xc.Rows, cfg.EmbedDim

	// 1. Stochastic realisations for the epoch batch.
	hasDrop := cfg.DropoutRate > 0
	hasNoise := cfg.NoiseSigma > 0
	if n := B * E; len(r.dropMask) < n {
		r.dropMask = make([]float64, n)
		r.noise = make([]float64, n)
	}
	if hasDrop {
		keep := 1 - cfg.DropoutRate
		inv := 1 / keep
		for i := 0; i < B*E; i++ {
			if m.rng.Float64() < keep {
				r.dropMask[i] = inv
			} else {
				r.dropMask[i] = 0
			}
		}
	}
	if hasNoise {
		for i := 0; i < B*E; i++ {
			r.noise[i] = m.rng.NormFloat64() * cfg.NoiseSigma
		}
	}

	// 2. Memory branch forward (eval mode), shared read-only across shards.
	r.refreshMemory()

	// 3. Row shards: forward+backward into per-shard buffers.
	shards := r.ensureShards(B)
	mat.ShardRows(len(shards), func(lo, hi int) {
		for s := lo; s < hi; s++ {
			r.runShard(shards[s], xc, xo, labels, hasDrop, hasNoise)
		}
	})

	// 4. Ordered reduction: shard-index order, independent of which worker
	// ran which shard.
	var ce, mse float64
	r.dKp.Zero()
	wc, bc := m.denseC.W, m.denseC.B
	wf, bf := m.denseF.W, m.denseF.B
	for _, sh := range shards {
		ce += sh.ce
		mse += sh.mse
		wc.G.AddInPlace(sh.gWc)
		addVec(bc.G.Data, sh.gBc)
		m.wq.G.AddInPlace(sh.gWq)
		wf.G.AddInPlace(sh.gWf)
		addVec(bf.G.Data, sh.gBf)
		r.dKp.AddInPlace(sh.gDKp)
	}

	// Memory-branch backward, once per step: Kp = memKeys·Wk, so
	// Wk.G += memKeysᵀ·dKp and the gradient flows through the eval-mode
	// ReLU into the original-branch embedding weights.
	wk, wo, bo := m.wk, m.denseO.W, m.denseO.B
	gwk := mat.TMulInto(mat.GetScratch(E, cfg.AttnDim), r.memKeys, r.dKp)
	wk.G.AddInPlace(gwk)
	mat.PutScratch(gwk)
	dmem := mat.MulTInto(mat.GetScratch(m.memX.Rows, E), r.dKp, wk.W)
	reluMask(dmem, r.memPre)
	gwo := mat.TMulInto(mat.GetScratch(cfg.NumAPs, E), m.memX, dmem)
	wo.G.AddInPlace(gwo)
	mat.PutScratch(gwo)
	for i := 0; i < dmem.Rows; i++ {
		addVec(bo.G.Data, dmem.Row(i))
	}
	mat.PutScratch(dmem)

	return ce + cfg.HyperspaceLambda*mse
}

// runShard computes rows [sh.lo, sh.hi) of the batch: the row pipeline's
// forward and CE backward, plus the λ-weighted MSE pull of H^C toward the
// augmented original hyperspace of the clean rows, accumulating
// parameter-gradient partials into the shard's own buffers.
func (r *trainRun) runShard(sh *trainShard, xc, xo *mat.Matrix, labels []int, hasDrop, hasNoise bool) {
	m := r.m
	cfg := m.Cfg
	B, E := xc.Rows, cfg.EmbedDim
	xcS := rowsOf(xc, sh.lo, sh.hi)
	m.forward(&sh.rowPass, xcS, r.kp)

	// MSE target: the dropout/noise-augmented original hyperspace of the
	// clean rows, treated as a constant (stop-gradient) — the usual
	// consistency-regularisation form. Letting the λ·MSE gradient also drive
	// the original branch would make both embeddings chase the dropout/noise
	// realisations and stall training.
	mat.MulInto(sh.ho, rowsOf(xo, sh.lo, sh.hi), m.denseO.W.W)
	sh.ho.AddRowVector(m.denseO.B.W.Data)
	base := sh.lo * E
	for i, v := range sh.ho.Data {
		if v < 0 {
			v = 0
		}
		if hasDrop {
			v *= r.dropMask[base+i]
		}
		if hasNoise {
			v += r.noise[base+i]
		}
		sh.ho.Data[i] = v
	}
	invN := 1 / float64(B*E)
	var mse float64
	for i, hv := range sh.hc.Data {
		d := hv - sh.ho.Data[i]
		mse += d * d * invN
		sh.ho.Data[i] = 2 * d * invN // sh.ho now holds ∂MSE/∂hc
	}
	sh.mse = mse
	sh.ce = m.backwardCE(&sh.rowPass, labels[sh.lo:sh.hi], B, r.kp)

	// Parameter partials of the classifier and the attention projections.
	mat.TMulInto(sh.gWf, sh.att, sh.gLogit)
	colSums(sh.gBf, sh.gLogit)
	mat.TMulInto(sh.gDKp, sh.ds, sh.qp)
	mat.TMulInto(sh.gWq, sh.hc, sh.dQp)

	// Query branch: attention gradient plus the λ-weighted MSE pull, masked
	// through the ReLU into the embedding weight partials.
	sh.dhc.AddScaledInPlace(sh.ho, cfg.HyperspaceLambda)
	reluMask(sh.dhc, sh.hcPre)
	mat.TMulInto(sh.gWc, xcS, sh.dhc)
	colSums(sh.gBc, sh.dhc)
}

func (r *trainRun) ensureBatchBuffers(bs, cols int) {
	if r.batchC != nil && r.batchC.Rows >= bs && r.batchC.Cols == cols {
		return
	}
	r.batchC = mat.New(bs, cols)
	r.batchO = mat.New(bs, cols)
	r.batchL = make([]int, bs)
}

// checkpoint captures the run's resumable state after a completed lesson.
func (r *trainRun) checkpoint(nextLesson int) *TrainCheckpoint {
	m := r.m
	return &TrainCheckpoint{
		Lesson:           nextLesson,
		Phi:              -1,
		Weights:          m.snapshotInto(nil),
		Best:             cloneTensors(r.best),
		Opt:              r.opt.State(m.Params()),
		LessonsCompleted: r.res.LessonsCompleted,
		Reverts:          r.res.Reverts,
		FinalLoss:        r.res.FinalLoss,
		RngSeed:          checkpointSeed(r.cfg.Seed, nextLesson),
	}
}

// checkpointSeed derives the resumed rng seed deterministically from the run
// seed and the lesson boundary (splitmix64 step), without consuming from the
// live rng — capturing a checkpoint never perturbs the training stream.
func checkpointSeed(seed int64, lesson int) int64 {
	z := uint64(seed) + uint64(lesson+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

func addVec(dst, src []float64) {
	for i, v := range src {
		dst[i] += v
	}
}

func colSums(dst []float64, m *mat.Matrix) {
	for i := range dst {
		dst[i] = 0
	}
	for i := 0; i < m.Rows; i++ {
		addVec(dst, m.Row(i))
	}
}

func cloneTensors(src [][]float64) [][]float64 {
	out := make([][]float64, len(src))
	for i, t := range src {
		out[i] = append([]float64(nil), t...)
	}
	return out
}

// noCurriculumSchedule builds the 'NC' ablation of Fig 5: the same epoch
// budget but conventional training — every phase is the attack-free baseline
// lesson (ø=0, 100% original data). The model never sees adversarial samples.
func noCurriculumSchedule(lessons []curriculum.Lesson) []curriculum.Lesson {
	out := make([]curriculum.Lesson, len(lessons))
	for i := range out {
		out[i] = curriculum.Lesson{
			Number:           i + 1,
			PhiPercent:       0,
			Epsilon:          0,
			OriginalFraction: 1,
		}
	}
	return out
}
