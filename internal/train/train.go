// Package train implements the online fine-tune subsystem that closes the
// train→serve→feedback→retrain→hot-swap cycle: a background Trainer
// accumulates labelled online fingerprints (e.g. from a /v1/feedback
// endpoint), periodically continues the curriculum from the incumbent
// model's checkpoint on base+feedback data, and puts each candidate through
// one promotion gate before it replaces what is being served:
//
//  1. Holdout gate: a fine-tune round "wins" when the candidate beats the
//     incumbent on the held-out clean+attacked split by more than MinDelta.
//     A losing round resets the win streak.
//  2. Win streak: after PromoteStreak consecutive winning rounds the
//     candidate goes live through Registry.SwapIf against the version the
//     round started from — a version pushed meanwhile fails the swap instead
//     of being silently discarded. In-flight batches finish on the old
//     snapshot, and the registry retains the displaced one.
//  3. Regret window: for RegretWindow ticker checks after a promotion the
//     trainer scores the live model AND the retained previous snapshot on
//     the same salted holdout evaluation, and if the served error regresses
//     past the previous snapshot's (plus RegretDelta) it rolls back
//     (Registry.Rollback) — promotion is cheap to undo, so the gate can
//     afford to be optimistic.
//
// Offer puts an externally built model (a gated weight push) through the
// same holdout comparison and, on a win, the same SwapIf and regret window.
//
// Everything runs off the request path: fine-tuning happens on the trainer's
// own goroutine, candidate models never answer until they are promoted, and
// validation against the live incumbent only uses paths that are safe under
// concurrent serving (the pooled predictors over the model's immutable
// serving snapshot for inference; the caching gradient path is exercised
// under the trainer's round lock alone, and serving never touches the
// training caches).
package train

import (
	"fmt"
	"math"
	"sync"
	"time"

	"calloc/internal/attack"
	"calloc/internal/core"
	"calloc/internal/curriculum"
	"calloc/internal/eval"
	"calloc/internal/fingerprint"
	"calloc/internal/localizer"
	"calloc/internal/radio"
)

// Options configures a Trainer: the model it is bound to, plus the tuning
// Policy shared by every floor a node serves.
type Options struct {
	// Key addresses the served localizer this trainer fine-tunes. It must
	// already be registered and wrap a *core.Model (localizer.FromCore).
	// Candidates keep the incumbent's name.
	Key localizer.Key
	// Config is the CALLOC architecture, matching the incumbent.
	Config core.Config
	// Base is the offline database: the attention memory and the permanent
	// share of every fine-tune's training data.
	Base []fingerprint.Sample
	// Holdout is the held-out validation split that gates swaps; it is
	// never trained on.
	Holdout []fingerprint.Sample
	// Checkpoint seeds the fine-tune loop with the incumbent's training
	// state (weights, optimizer moments, annealed LR). Nil builds a fresh
	// one from the incumbent's current weights — how weight-file deployments
	// (no optimizer history) enter the loop.
	Checkpoint *core.TrainCheckpoint
	// Dist scores a validation prediction against its label — typically
	// Dataset.ErrorMeters. Nil selects 0/1 misclassification.
	Dist func(pred, label int) float64
	// Logf, when non-nil, receives one line per fine-tune round.
	Logf func(format string, args ...any)

	Policy
}

// Policy is the fine-tune loop's tuning: the curriculum each round replays
// and the promotion gate's thresholds. Zero fields select the defaults noted
// below; Validate rejects values that would silently disable the gate.
type Policy struct {
	// Lessons is the fine-tune curriculum replayed each round: a short tail
	// of the paper's schedule — one clean lesson to absorb the feedback,
	// then escalating ø to re-harden. Nil selects Schedule(3, 30, ε=0.1).
	Lessons []curriculum.Lesson
	// EpochsPerLesson caps each fine-tune lesson (default 6).
	EpochsPerLesson int
	// LearningRate is the steady-state online rate each round restarts at
	// (default 0.005); within a round the usual per-lesson annealing applies.
	LearningRate float64
	// BatchSize for fine-tune epochs (default 64; fine-tunes favour
	// mini-batches so feedback rows get gradient signal early).
	BatchSize int

	// MinFeedback is how many new samples must accumulate before the
	// background loop fine-tunes (default 16). MaxFeedback caps the online
	// set, dropping the oldest samples (default 4096).
	MinFeedback int
	MaxFeedback int
	// Interval is the background loop's poll cadence (default 2s). Each tick
	// also advances the regret check, which does not need new feedback.
	Interval time.Duration

	// MinDelta is how much the candidate's holdout score (Scores.Total) must
	// improve on the incumbent's for a fine-tune round to count as a win.
	// The default 0 keeps the historical strict-improvement rule.
	MinDelta float64
	// PromoteStreak is the hysteresis depth: consecutive winning rounds
	// required before the candidate goes live (default 1). A losing round
	// resets the streak.
	PromoteStreak int
	// RegretWindow is how many ticker checks after a promotion the live
	// model is re-validated on the holdout; 0 disables rollback-on-regret.
	RegretWindow int
	// RegretDelta is the tolerance on the regret comparison. Each regret
	// tick scores the promoted model AND the retained previous snapshot on
	// the same salted holdout evaluation (paired, so attack-realisation
	// noise cancels); rollback fires when the promoted model's total
	// exceeds the previous snapshot's by more than RegretDelta.
	RegretDelta float64

	// Seed drives fine-tune data shuffling and attack realisations; each
	// round derives its own stream so repeated rounds see fresh attacks.
	Seed int64
}

// attackPhi is the ø of the attacked half of the validation gate; its ε is
// the curriculum's DefaultEpsilon.
const attackPhi = 50

// Validate rejects the settings that are accepted by the zero-means-default
// rules yet disable part of the gate without saying so: a NaN delta never
// wins (MinDelta) or never rolls back (RegretDelta), and a NaN rate trains
// into NaN weights.
func (p *Policy) Validate() error {
	names := [...]string{"MinDelta", "RegretDelta", "LearningRate"}
	for i, v := range [...]float64{p.MinDelta, p.RegretDelta, p.LearningRate} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("train: %s must be finite, got %v", names[i], v)
		}
	}
	return nil
}

func (p *Policy) setDefaults() {
	if p.Lessons == nil {
		p.Lessons = curriculum.Schedule(3, 30, curriculum.DefaultEpsilon)
	}
	if p.EpochsPerLesson <= 0 {
		p.EpochsPerLesson = 6
	}
	if p.LearningRate <= 0 {
		p.LearningRate = 0.005
	}
	if p.BatchSize <= 0 {
		p.BatchSize = 64
	}
	if p.MinFeedback <= 0 {
		p.MinFeedback = 16
	}
	if p.MaxFeedback <= 0 {
		p.MaxFeedback = 4096
	}
	if p.Interval <= 0 {
		p.Interval = 2 * time.Second
	}
	if p.PromoteStreak <= 0 {
		p.PromoteStreak = 1
	}
}

// Scores is one model's validation result on the held-out split.
type Scores struct {
	// Clean and Attacked are mean per-sample errors (Dist units; 0/1
	// misclassification when no Dist is configured). Attacked evaluates
	// FGSM crafted white-box against the scored model itself.
	Clean    float64 `json:"clean"`
	Attacked float64 `json:"attacked"`
}

// Total is the gate score: clean and attacked weighted equally, the same
// trade-off the curriculum itself optimises.
func (s Scores) Total() float64 { return s.Clean + s.Attacked }

// Round reports one fine-tune cycle, or one Offer (whose Round and Feedback
// are zero).
type Round struct {
	Round     int64  `json:"round"`
	Feedback  int    `json:"feedback"`
	Candidate Scores `json:"candidate"`
	Incumbent Scores `json:"incumbent"`
	// Win reports whether the candidate cleared the holdout min-delta gate
	// this round; Streak is the consecutive-win count it reached (a
	// promotion restarts the trainer's count).
	Win    bool `json:"win"`
	Streak int  `json:"streak"`
	// Swapped reports whether this round's candidate was promoted to the
	// live slot. Version is the live registry version after the round.
	Swapped bool   `json:"swapped"`
	Version uint64 `json:"version"`
}

// Stats is a point-in-time snapshot of a trainer's counters.
type Stats struct {
	FeedbackTotal   int64 `json:"feedback_total"`
	FeedbackPending int   `json:"feedback_pending"`
	FeedbackHeld    int   `json:"feedback_held"`
	Rounds          int64 `json:"rounds"`
	// Swaps counts promotions into the live slot (each one is a served
	// hot-swap); Rollbacks counts regretted promotions undone.
	Swaps     int64 `json:"swaps"`
	Rollbacks int64 `json:"rollbacks"`
	// Streak is the current consecutive-win count; RegretTicksLeft is how
	// much of the post-promotion regret window remains.
	Streak          int    `json:"streak"`
	RegretTicksLeft int    `json:"regret_ticks_left,omitempty"`
	Version         uint64 `json:"version"`
	LastCandidate   Scores `json:"last_candidate"`
	LastIncumbent   Scores `json:"last_incumbent"`
	LastError       string `json:"last_error,omitempty"`
}

// regretState is the post-promotion watch: while ticksLeft > 0 the live
// model is re-validated against the registry's retained previous snapshot,
// both scored on the SAME salted holdout evaluation each tick (paired
// comparison — attack-realisation noise cancels instead of masquerading as
// a regression).
type regretState struct {
	version   uint64 // the promoted live version under watch
	ticksLeft int
}

// Trainer is the background fine-tune loop for one registered CALLOC
// localizer. AddFeedback is safe to call from any number of request
// handlers; the fine-tune cycle runs on one goroutine at a time.
type Trainer struct {
	reg  *localizer.Registry
	opts Options
	name string

	holdout []fingerprint.Sample

	mu       sync.Mutex
	feedback []fingerprint.Sample // ring once full; fbHead is the oldest slot
	fbHead   int
	pending  int
	ckpt     *core.TrainCheckpoint
	version  uint64
	stats    Stats
	streak   int
	regret   *regretState

	runMu   sync.Mutex // serialises fine-tune rounds and gate transitions
	round   int64
	evalSeq int64 // salts out-of-round holdout evaluations (regret checks)

	// preSwap, when non-nil, runs immediately before Registry.SwapIf — a
	// test hook to interleave concurrent version pushes deterministically.
	preSwap func()
	// scoreFn, when non-nil, replaces score — a test hook that lets the
	// gate state machine be driven with scripted holdout results.
	scoreFn func(m *core.Model, salt int64) Scores

	lifeMu  sync.Mutex // guards started/closed; orders Start against Close
	started bool
	closed  bool
	stop    chan struct{}
	done    chan struct{}
}

// New builds a trainer for the localizer registered under opts.Key. The
// incumbent must wrap a *core.Model with dimensions matching opts.Config.
func New(reg *localizer.Registry, opts Options) (*Trainer, error) {
	if reg == nil {
		return nil, fmt.Errorf("train: nil registry")
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts.setDefaults()
	if len(opts.Base) == 0 {
		return nil, fmt.Errorf("train: empty base dataset")
	}
	if len(opts.Holdout) == 0 {
		return nil, fmt.Errorf("train: empty holdout split (the swap gate needs one)")
	}
	snap, ok := reg.Get(opts.Key)
	if !ok {
		return nil, fmt.Errorf("train: %s not registered", opts.Key)
	}
	inc, ok := localizer.Unwrap(snap.Localizer).(*core.Model)
	if !ok {
		return nil, fmt.Errorf("train: %s does not wrap a core.Model (got %q)", opts.Key, snap.Localizer.Name())
	}
	if inc.Cfg.NumAPs != opts.Config.NumAPs || inc.Cfg.NumRPs != opts.Config.NumRPs {
		return nil, fmt.Errorf("train: incumbent is %d×%d, options configure %d×%d",
			inc.Cfg.NumAPs, inc.Cfg.NumRPs, opts.Config.NumAPs, opts.Config.NumRPs)
	}
	t := &Trainer{
		reg:     reg,
		opts:    opts,
		name:    snap.Localizer.Name(),
		holdout: fingerprint.CloneSamples(opts.Holdout),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	t.ckpt = opts.Checkpoint
	if t.ckpt == nil {
		t.ckpt = inc.NewTrainCheckpoint(0, opts.LearningRate, opts.Seed)
	}
	t.version = snap.Version
	t.stats.Version = snap.Version
	return t, nil
}

// AddFeedback records one labelled online fingerprint. It is cheap and safe
// to call from concurrent request handlers; training never happens here.
func (t *Trainer) AddFeedback(rss []float64, rp int) error {
	if len(rss) != t.opts.Config.NumAPs {
		return fmt.Errorf("train: feedback has %d features, model expects %d", len(rss), t.opts.Config.NumAPs)
	}
	if rp < 0 || rp >= t.opts.Config.NumRPs {
		return fmt.Errorf("train: feedback label %d outside [0,%d)", rp, t.opts.Config.NumRPs)
	}
	if err := radio.CheckNormalized(rss); err != nil {
		return fmt.Errorf("train: feedback: %w", err)
	}
	s := fingerprint.Sample{RSS: append([]float64(nil), rss...), RP: rp}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.feedback) >= t.opts.MaxFeedback {
		// Ring overwrite of the oldest slot: the online set is a sliding
		// window over the environment's recent state, and the request path
		// stays O(1) at the cap.
		t.feedback[t.fbHead] = s
		t.fbHead = (t.fbHead + 1) % len(t.feedback)
	} else {
		t.feedback = append(t.feedback, s)
	}
	t.stats.FeedbackTotal++
	t.pending++
	return nil
}

// Pending returns how many feedback samples arrived since the last
// fine-tune.
func (t *Trainer) Pending() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.pending
}

// Stats returns a snapshot of the trainer's counters.
func (t *Trainer) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.stats
	s.FeedbackPending = t.pending
	s.FeedbackHeld = len(t.feedback)
	s.Streak = t.streak
	if t.regret != nil {
		s.RegretTicksLeft = t.regret.ticksLeft
	}
	return s
}

// Start launches the background loop: every Interval, advance the regret
// check, and if at least MinFeedback new samples arrived, run one fine-tune
// round. Idempotent; a no-op after Close.
func (t *Trainer) Start() {
	t.lifeMu.Lock()
	defer t.lifeMu.Unlock()
	if t.started || t.closed {
		return
	}
	t.started = true
	go func() {
		defer close(t.done)
		ticker := time.NewTicker(t.opts.Interval)
		defer ticker.Stop()
		for {
			select {
			case <-t.stop:
				return
			case <-ticker.C:
				// A tick racing Close could be drawn even after stop is
				// closed (select picks ready cases arbitrarily): re-check so
				// no work starts once Close has begun.
				select {
				case <-t.stop:
					return
				default:
				}
				t.tick()
			}
		}
	}()
}

// tick is one background-loop step: advance the post-promotion regret watch,
// then fine-tune if enough feedback accumulated.
func (t *Trainer) tick() {
	t.regretCheck()
	if t.Pending() < t.opts.MinFeedback {
		return
	}
	if _, err := t.FineTune(); err != nil {
		t.logf("train: fine-tune: %v", err)
	}
}

// Close stops the background loop and waits for any in-flight round to
// finish. A Start racing (or following) Close never launches the loop: the
// flag handshake is ordered by lifeMu, so after Close returns no round is
// running and none will start. Idempotent; safe to call without Start.
func (t *Trainer) Close() {
	t.lifeMu.Lock()
	wasStarted := t.started
	if !t.closed {
		t.closed = true
		close(t.stop)
	}
	t.lifeMu.Unlock()
	if wasStarted {
		<-t.done
	}
	t.runMu.Lock() // wait for a manually triggered round, if any
	defer t.runMu.Unlock()
}

// FineTune runs one synchronous fine-tune cycle: continue the curriculum
// from the incumbent's checkpoint on base+feedback data, validate on the
// held-out clean+attacked split, and after PromoteStreak consecutive MinDelta
// wins promote the candidate through SwapIf against the version the round
// started from. Rounds are serialised; concurrent callers queue.
func (t *Trainer) FineTune() (Round, error) {
	t.runMu.Lock()
	defer t.runMu.Unlock()

	snap, inc, err := t.incumbent()
	if err != nil {
		return Round{}, t.fail(err)
	}

	t.mu.Lock()
	if snap.Version != t.version {
		// Someone else published a version (a manual /v1/swap weight push, a
		// rollback): the carried optimizer state describes a different
		// model, so restart the fine-tune continuation from the live weights,
		// and the streak earned against the displaced version restarts too.
		t.ckpt = inc.NewTrainCheckpoint(0, t.opts.LearningRate, t.opts.Seed)
		t.version = snap.Version
		t.streak = 0
	}
	fb := t.feedbackSnapshotLocked()
	taken := t.pending
	t.pending = 0
	resume := t.ckpt.Clone()
	round := t.round
	t.round++
	t.mu.Unlock()

	// A failed round must not swallow the feedback credit that triggered
	// it: restore the pending count so the background loop retries on the
	// next tick instead of waiting for MinFeedback NEW samples.
	failRestore := func(err error) (Round, error) {
		t.mu.Lock()
		t.pending += taken
		t.mu.Unlock()
		return Round{}, t.fail(err)
	}

	// Rewind the continuation to the head of the fine-tune schedule and
	// restart the online learning rate: the weights and optimizer moments
	// continue, the short curriculum replays over the refreshed data.
	resume.Lesson = 0
	resume.Phi = -1
	resume.Opt.LR = t.opts.LearningRate
	resume.RngSeed = t.opts.Seed + round + 1

	cand, err := core.NewModel(t.opts.Config)
	if err != nil {
		return failRestore(err)
	}
	if err := cand.SetMemory(t.opts.Base); err != nil {
		return failRestore(err)
	}
	db := make([]fingerprint.Sample, 0, len(t.opts.Base)+len(fb))
	db = append(db, t.opts.Base...)
	db = append(db, fb...)

	var final *core.TrainCheckpoint
	tc := core.TrainConfig{
		Lessons:         t.opts.Lessons,
		UseCurriculum:   true,
		EpochsPerLesson: t.opts.EpochsPerLesson,
		BatchSize:       t.opts.BatchSize,
		LearningRate:    t.opts.LearningRate,
		Patience:        3,
		MaxReverts:      3,
		Seed:            resume.RngSeed,
		Resume:          resume,
		OnCheckpoint:    func(c *core.TrainCheckpoint) { final = c },
	}
	if _, err := cand.Train(db, tc); err != nil {
		return failRestore(err)
	}

	res := Round{Round: round, Feedback: len(fb), Version: snap.Version}
	res.Candidate = t.scoreOf(cand, round)
	res.Incumbent = t.scoreOf(inc, round)
	res.Win = res.Candidate.Total() < res.Incumbent.Total()-t.opts.MinDelta

	t.mu.Lock()
	if res.Win {
		t.streak++
	} else {
		t.streak = 0
	}
	res.Streak = t.streak
	t.mu.Unlock()
	var gateErr error
	if res.Streak >= t.opts.PromoteStreak {
		_, gateErr = t.promote(localizer.FromCore(t.name, cand), final, snap.Version)
		res.Swapped = gateErr == nil
	}

	// Report the live version as it is now — a promotion advanced it, and a
	// conflicting concurrent push must not leave a stale number in stats.
	if live, ok := t.reg.Get(t.opts.Key); ok {
		res.Version = live.Version
	}
	t.mu.Lock()
	t.stats.Rounds++
	t.stats.Version = res.Version
	t.stats.LastCandidate = res.Candidate
	t.stats.LastIncumbent = res.Incumbent
	if gateErr == nil {
		t.stats.LastError = ""
	}
	t.mu.Unlock()
	t.logf("train: round %d: feedback %d, candidate %.4f (clean %.4f + attacked %.4f) vs incumbent %.4f — win=%v streak=%d swapped=%v (v%d)",
		round, len(fb), res.Candidate.Total(), res.Candidate.Clean, res.Candidate.Attacked,
		res.Incumbent.Total(), res.Win, res.Streak, res.Swapped, res.Version)
	return res, nil
}

// promote installs a gate winner through SwapIf against base, the live
// version the candidate was scored against, and arms the regret window. A
// version published since (a manual push, a rollback) fails the swap with
// localizer.ErrVersionConflict rather than being discarded; the next round
// then rebuilds from the live weights. final is the candidate's training
// continuation, nil for a model with no optimizer history (an Offer), which
// makes the next round rebuild from the live weights too. The streak
// restarts either way. Caller holds runMu.
func (t *Trainer) promote(loc localizer.Localizer, final *core.TrainCheckpoint, base uint64) (uint64, error) {
	if t.preSwap != nil {
		t.preSwap()
	}
	version, err := t.reg.SwapIf(t.opts.Key, loc, base)
	live, _ := t.reg.Get(t.opts.Key)
	t.mu.Lock()
	t.streak = 0
	t.stats.Version = live.Version
	if err != nil {
		t.stats.LastError = err.Error()
	} else {
		t.ckpt, t.version = final, version
		if final == nil {
			t.version = 0 // no optimizer history: the next round rebuilds from the live weights
		}
		t.stats.Swaps++
		if t.opts.RegretWindow > 0 {
			t.regret = &regretState{version: version, ticksLeft: t.opts.RegretWindow}
		}
	}
	t.mu.Unlock()
	if err != nil {
		t.logf("train: discarding candidate — %v", err)
		return 0, err
	}
	t.logf("train: promoted %s to live version %d", loc.Name(), version)
	return version, nil
}

// regretCheck advances the post-promotion watch: while the promoted version
// is still live and the window is open, re-score it on the holdout and roll
// back if the served error regressed past the displaced incumbent's
// baseline.
func (t *Trainer) regretCheck() {
	t.mu.Lock()
	watching := t.regret != nil
	t.mu.Unlock()
	if !watching {
		return
	}
	t.runMu.Lock()
	defer t.runMu.Unlock()
	t.mu.Lock()
	r := t.regret
	t.mu.Unlock()
	if r == nil {
		return
	}
	clearWatch := func() {
		t.mu.Lock()
		t.regret = nil
		t.mu.Unlock()
	}
	snap, ok := t.reg.Get(t.opts.Key)
	if !ok || snap.Version != r.version {
		// The watched version is no longer served (another promotion, a
		// manual push, or a rollback already happened): the watch is moot.
		clearWatch()
		return
	}
	live, ok := localizer.Unwrap(snap.Localizer).(*core.Model)
	if !ok {
		clearWatch()
		return
	}
	prevSnap, ok := t.reg.Previous(t.opts.Key)
	if !ok {
		// The rollback target is gone (a manual swap consumed it): there is
		// nothing to roll back to, so the watch is moot.
		clearWatch()
		return
	}
	prev, ok := localizer.Unwrap(prevSnap.Localizer).(*core.Model)
	if !ok {
		clearWatch()
		return
	}
	// Paired comparison: both models scored on the same salted evaluation,
	// so a rollback reflects "the displaced model would serve this eval
	// better", not a fresh attack draw being unluckier than the baseline's.
	t.evalSeq++
	salt := 100000 + t.evalSeq // clear of the round sequence
	liveScore := t.scoreOf(live, salt)
	prevScore := t.scoreOf(prev, salt)
	if liveScore.Total() > prevScore.Total()+t.opts.RegretDelta {
		version, err := t.reg.Rollback(t.opts.Key)
		if err != nil {
			t.mu.Lock()
			t.regret = nil
			t.stats.LastError = err.Error()
			t.mu.Unlock()
			t.logf("train: regret rollback failed: %v", err)
			return
		}
		t.mu.Lock()
		t.regret = nil
		t.streak = 0
		t.version = 0 // force the next round to rebuild from the restored live weights
		t.stats.Rollbacks++
		t.stats.Version = version
		t.mu.Unlock()
		t.logf("train: regret: promoted model scores %.4f vs displaced snapshot's %.4f (+%.4f tolerance) — rolled back to previous snapshot as version %d",
			liveScore.Total(), prevScore.Total(), t.opts.RegretDelta, version)
		return
	}
	t.mu.Lock()
	r.ticksLeft--
	cleared := r.ticksLeft <= 0
	if cleared {
		t.regret = nil
	}
	t.mu.Unlock()
	if cleared {
		t.logf("train: regret window closed — version %d holds (%.4f vs displaced %.4f)", r.version, liveScore.Total(), prevScore.Total())
	}
}

// Offer is the gated push: it scores cand against the live incumbent on the
// same salted holdout evaluation, and when cand wins by more than MinDelta
// promotes it exactly like a winning round — SwapIf against the scored
// version, then the regret window. The returned Round reports both scores,
// whether cand went live, and the live version after the call.
func (t *Trainer) Offer(cand *core.Model) (Round, error) {
	t.runMu.Lock()
	defer t.runMu.Unlock()
	snap, inc, err := t.incumbent()
	if err != nil {
		return Round{}, err
	}
	t.evalSeq++
	salt := 100000 + t.evalSeq // clear of the round sequence
	res := Round{Candidate: t.scoreOf(cand, salt), Incumbent: t.scoreOf(inc, salt), Version: snap.Version}
	res.Win = res.Candidate.Total() < res.Incumbent.Total()-t.opts.MinDelta
	if res.Win {
		version, err := t.promote(localizer.FromCore(t.name, cand), nil, snap.Version)
		if err != nil {
			return Round{}, err
		}
		res.Swapped, res.Version = true, version
	}
	t.logf("train: offered model %.4f vs incumbent %.4f — swapped=%v (v%d)",
		res.Candidate.Total(), res.Incumbent.Total(), res.Swapped, res.Version)
	return res, nil
}

// incumbent returns the live snapshot under the trainer's key and the model
// it wraps.
func (t *Trainer) incumbent() (localizer.Snapshot, *core.Model, error) {
	snap, ok := t.reg.Get(t.opts.Key)
	if !ok {
		return snap, nil, fmt.Errorf("train: %s no longer registered", t.opts.Key)
	}
	inc, ok := localizer.Unwrap(snap.Localizer).(*core.Model)
	if !ok {
		return snap, nil, fmt.Errorf("train: %s no longer wraps a core.Model", t.opts.Key)
	}
	return snap, inc, nil
}

// scoreOf dispatches to the scripted score hook in tests and to the real
// holdout evaluation otherwise.
func (t *Trainer) scoreOf(m *core.Model, salt int64) Scores {
	if t.scoreFn != nil {
		return t.scoreFn(m, salt)
	}
	return t.score(m, salt)
}

// score evaluates a model on the holdout split: clean predictions plus an
// FGSM attack crafted white-box against the scored model itself, the same
// threat the curriculum trains for. Prediction runs the immutable serving
// snapshot, so scoring the live incumbent is safe under concurrent serving; the
// gradient pass for crafting touches only training-side state that serving
// never reads, and every score call runs under runMu so two gradient passes
// never overlap on the same model.
func (t *Trainer) score(m *core.Model, salt int64) Scores {
	x := fingerprint.X(t.holdout)
	labels := fingerprint.Labels(t.holdout)
	dist := t.opts.Dist
	if dist == nil {
		dist = func(pred, label int) float64 {
			if pred == label {
				return 0
			}
			return 1
		}
	}
	var s Scores
	s.Clean = mean(eval.Errors(m.Predict(x), labels, dist))
	adv := attack.Craft(attack.FGSM, m, x, labels, attack.Config{
		Epsilon:    curriculum.DefaultEpsilon,
		PhiPercent: attackPhi,
		Seed:       t.opts.Seed + 7919*(salt+1),
	})
	s.Attacked = mean(eval.Errors(m.Predict(adv), labels, dist))
	return s
}

// feedbackSnapshotLocked copies the online set oldest-first; t.mu held.
func (t *Trainer) feedbackSnapshotLocked() []fingerprint.Sample {
	ordered := make([]fingerprint.Sample, 0, len(t.feedback))
	ordered = append(ordered, t.feedback[t.fbHead:]...)
	ordered = append(ordered, t.feedback[:t.fbHead]...)
	return fingerprint.CloneSamples(ordered)
}

func (t *Trainer) fail(err error) error {
	t.mu.Lock()
	t.stats.Rounds++
	t.stats.LastError = err.Error()
	t.mu.Unlock()
	return err
}

func (t *Trainer) logf(format string, args ...any) {
	if t.opts.Logf != nil {
		t.opts.Logf(format, args...)
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range xs {
		sum += v
	}
	return sum / float64(len(xs))
}
