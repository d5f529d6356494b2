// Package train implements the online fine-tune subsystem that closes the
// train→serve→feedback→retrain→hot-swap cycle: a background Trainer
// accumulates labelled online fingerprints (e.g. from a /v1/feedback
// endpoint), periodically continues the curriculum from the incumbent
// model's checkpoint on base+feedback data, and walks each candidate through
// a two-phase promotion gate before it replaces what is being served:
//
//  1. Holdout gate (stage): a fine-tune round "wins" when the candidate
//     beats the incumbent on the held-out clean+attacked split by at least
//     MinDelta; after StageAfter consecutive winning rounds the candidate is
//     staged into the registry's A/B lane (Registry.Stage), where the
//     serving engine shadows live routed traffic through it without ever
//     returning its predictions. A losing round aborts the staged candidate
//     and resets the hysteresis streak.
//  2. Shadow gate (promote): once the candidate has scored at least
//     PromoteAfter real shadowed rows (and, optionally, agrees with the live
//     arm on at least MinAgreement of them), it is promoted
//     (Registry.Promote) — the live version advances, in-flight batches
//     finish on the old snapshot, and the displaced snapshot is retained.
//
// After a promotion the trainer watches a regret window: for RegretWindow
// ticker checks it scores the live model AND the retained previous snapshot
// on the same salted holdout evaluation, and if the served error regresses
// past the previous snapshot's (plus RegretDelta) it automatically rolls
// back (Registry.Rollback) — promotion is cheap to undo, so the gate can
// afford to be optimistic.
//
// Everything runs off the request path: fine-tuning happens on the trainer's
// own goroutine, candidate models shadow but never answer until the
// promotion, and validation against the live incumbent only uses paths that
// are safe under concurrent serving (the pooled predictors over the model's
// immutable serving snapshot for inference; the caching gradient path is exercised under the trainer's
// round lock alone, and serving never touches the training caches).
package train

import (
	"errors"
	"fmt"
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

// Options configures a Trainer.
type Options struct {
	// Key addresses the served localizer this trainer fine-tunes. It must
	// already be registered and wrap a *core.Model (localizer.FromCore).
	Key localizer.Key
	// Name labels swapped-in candidates; empty keeps the incumbent's name.
	Name string
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
	// also advances the promotion and regret checks, which do not need new
	// feedback.
	Interval time.Duration

	// MinDelta is how much the candidate's holdout score (Scores.Total) must
	// improve on the incumbent's for a fine-tune round to count as a win.
	// The default 0 keeps the historical strict-improvement rule.
	MinDelta float64
	// StageAfter is the hysteresis depth: consecutive winning rounds
	// required before the candidate is staged into the A/B lane (default 1).
	// A losing round resets the streak and aborts any staged candidate.
	StageAfter int
	// PromoteAfter is the minimum number of live shadowed rows the staged
	// candidate must score before promotion. It only gates when Shadow is
	// wired; with Shadow nil (or PromoteAfter 0) a staged candidate promotes
	// immediately — the historical behaviour.
	PromoteAfter int64
	// MinAgreement, when > 0, additionally requires the candidate to agree
	// with the live arm on at least this fraction of the shadow sample —
	// a cheap sanity floor against degenerate candidates that happened to
	// score well on the holdout.
	MinAgreement float64
	// Shadow reads the serving layer's A/B counters for Key: the staged
	// candidate version the counters describe, shadow rows scored, and
	// agreements with the live arm (see serve.Engine.ABStats). Nil disables
	// the shadow gate.
	Shadow func() (candVersion uint64, rows, agree int64)
	// RegretWindow is how many ticker checks after a promotion the live
	// model is re-validated on the holdout; 0 disables rollback-on-regret.
	RegretWindow int
	// RegretDelta is the tolerance on the regret comparison. Each regret
	// tick scores the promoted model AND the retained previous snapshot on
	// the same salted holdout evaluation (paired, so attack-realisation
	// noise cancels); rollback fires when the promoted model's total
	// exceeds the previous snapshot's by more than RegretDelta.
	RegretDelta float64

	// AttackEpsilon/AttackPhi parameterise the attacked half of the
	// validation gate (defaults: the curriculum's ε=0.1, ø=50).
	AttackEpsilon float64
	AttackPhi     int

	// Seed drives fine-tune data shuffling and attack realisations; each
	// round derives its own stream so repeated rounds see fresh attacks.
	Seed int64
	// Dist scores a validation prediction against its label — typically
	// Dataset.ErrorMeters. Nil selects 0/1 misclassification. Must be safe
	// for concurrent calls (validation fans out over eval.Errors).
	Dist func(pred, label int) float64
	// Logf, when non-nil, receives one line per fine-tune round.
	Logf func(format string, args ...any)
}

func (o *Options) setDefaults() {
	if o.Lessons == nil {
		o.Lessons = curriculum.Schedule(3, 30, curriculum.DefaultEpsilon)
	}
	if o.EpochsPerLesson <= 0 {
		o.EpochsPerLesson = 6
	}
	if o.LearningRate <= 0 {
		o.LearningRate = 0.005
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 64
	}
	if o.MinFeedback <= 0 {
		o.MinFeedback = 16
	}
	if o.MaxFeedback <= 0 {
		o.MaxFeedback = 4096
	}
	if o.Interval <= 0 {
		o.Interval = 2 * time.Second
	}
	if o.StageAfter <= 0 {
		o.StageAfter = 1
	}
	if o.AttackEpsilon <= 0 {
		o.AttackEpsilon = curriculum.DefaultEpsilon
	}
	if o.AttackPhi <= 0 {
		o.AttackPhi = 50
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

// Round reports one fine-tune cycle.
type Round struct {
	Round     int64  `json:"round"`
	Feedback  int    `json:"feedback"`
	Candidate Scores `json:"candidate"`
	Incumbent Scores `json:"incumbent"`
	// Win reports whether the candidate cleared the holdout min-delta gate
	// this round; Streak is the consecutive-win count after this round.
	Win    bool `json:"win"`
	Streak int  `json:"streak"`
	// Staged reports whether the candidate sits in the A/B lane after this
	// round (staged now or in an earlier round and not yet promoted);
	// CandidateVersion identifies it.
	Staged           bool   `json:"staged"`
	CandidateVersion uint64 `json:"candidate_version,omitempty"`
	// Swapped reports whether this round's candidate was promoted to the
	// live slot (immediately — when the shadow gate is disabled or already
	// satisfied). Version is the live registry version after the round.
	Swapped bool   `json:"swapped"`
	Version uint64 `json:"version"`
}

// Stats is a point-in-time snapshot of a trainer's counters.
type Stats struct {
	FeedbackTotal   int64 `json:"feedback_total"`
	FeedbackPending int   `json:"feedback_pending"`
	FeedbackHeld    int   `json:"feedback_held"`
	Rounds          int64 `json:"rounds"`
	// Swaps counts promotions into the live slot (the historical name: each
	// one is a served hot-swap). Aborts counts staged candidates withdrawn
	// (hysteresis reset or version conflict); Rollbacks counts regretted
	// promotions undone.
	Swaps     int64 `json:"swaps"`
	Aborts    int64 `json:"aborts"`
	Rollbacks int64 `json:"rollbacks"`
	// Streak is the current consecutive-win count; Staged/CandidateVersion
	// describe the A/B lane; RegretTicksLeft is how much of the
	// post-promotion regret window remains.
	Streak           int    `json:"streak"`
	Staged           bool   `json:"staged"`
	CandidateVersion uint64 `json:"candidate_version,omitempty"`
	RegretTicksLeft  int    `json:"regret_ticks_left,omitempty"`
	Version          uint64 `json:"version"`
	LastCandidate    Scores `json:"last_candidate"`
	LastIncumbent    Scores `json:"last_incumbent"`
	LastError        string `json:"last_error,omitempty"`
}

// staged is the trainer-side record of a candidate sitting in the A/B lane.
type stagedState struct {
	candVersion uint64 // localizer.Candidate.Version staged under the key
	final       *core.TrainCheckpoint
	cand, inc   Scores // holdout scores at stage time (inc = regret baseline)
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
	staged   *stagedState
	regret   *regretState

	runMu   sync.Mutex // serialises fine-tune rounds and gate transitions
	round   int64
	evalSeq int64 // salts out-of-round holdout evaluations (regret checks)

	// prePromote, when non-nil, runs immediately before Registry.Promote —
	// a test hook to interleave concurrent version pushes deterministically.
	prePromote func()
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
	name := opts.Name
	if name == "" {
		name = snap.Localizer.Name()
	}
	t := &Trainer{
		reg:     reg,
		opts:    opts,
		name:    name,
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
	if t.staged != nil {
		s.Staged = true
		s.CandidateVersion = t.staged.candVersion
	}
	if t.regret != nil {
		s.RegretTicksLeft = t.regret.ticksLeft
	}
	return s
}

// Start launches the background loop: every Interval, advance the regret and
// promotion checks, and if at least MinFeedback new samples arrived, run one
// fine-tune round. Idempotent; a no-op after Close.
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
// promote a staged candidate whose shadow sample filled up between rounds,
// then fine-tune if enough feedback accumulated.
func (t *Trainer) tick() {
	t.regretCheck()
	t.promoteCheck()
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
// held-out clean+attacked split, and walk the two-phase gate — stage into
// the A/B lane after StageAfter consecutive MinDelta wins, promote once the
// shadow gate is satisfied (immediately when it is disabled). Rounds are
// serialised; concurrent callers queue.
func (t *Trainer) FineTune() (Round, error) {
	t.runMu.Lock()
	defer t.runMu.Unlock()

	snap, ok := t.reg.Get(t.opts.Key)
	if !ok {
		return Round{}, t.fail(fmt.Errorf("train: %s no longer registered", t.opts.Key))
	}
	inc, ok := localizer.Unwrap(snap.Localizer).(*core.Model)
	if !ok {
		return Round{}, t.fail(fmt.Errorf("train: %s no longer wraps a core.Model", t.opts.Key))
	}

	t.mu.Lock()
	if snap.Version != t.version {
		// Someone else published a version (a manual /v1/swap weight push, a
		// rollback): the carried optimizer state describes a different
		// model, so restart the fine-tune continuation from the live
		// weights; a staged candidate was derived from the displaced version
		// and is withdrawn.
		t.ckpt = inc.NewTrainCheckpoint(0, t.opts.LearningRate, t.opts.Seed)
		t.version = snap.Version
		t.streak = 0
		if t.staged != nil {
			stagedVersion := t.staged.candVersion
			t.staged = nil
			t.stats.Aborts++
			t.mu.Unlock()
			// Withdraw only OUR candidate: an operator may have restaged the
			// lane since.
			t.reg.AbortIf(t.opts.Key, stagedVersion)
			t.logf("train: live version moved to %d — aborting the staged candidate", snap.Version)
			t.mu.Lock()
		}
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

	var gateErr error
	if !res.Win {
		// Hysteresis reset: the streak restarts, and a previously staged
		// candidate loses its evidence — abort it rather than let it keep
		// shadowing (or promote) on stale holdout wins. Only OUR candidate
		// is withdrawn; an operator's external stage is left alone.
		t.mu.Lock()
		t.streak = 0
		var stagedVersion uint64
		aborted := t.staged != nil
		if aborted {
			stagedVersion = t.staged.candVersion
			t.staged = nil
			t.stats.Aborts++
		}
		t.mu.Unlock()
		if aborted {
			t.reg.AbortIf(t.opts.Key, stagedVersion)
			t.logf("train: round %d: candidate lost the holdout gate — aborted the staged candidate", round)
		}
	} else {
		t.mu.Lock()
		t.streak++
		streak := t.streak
		st := t.staged
		t.mu.Unlock()
		res.Streak = streak
		if streak >= t.opts.StageAfter {
			stage := true
			if cur, ok := t.reg.Candidate(t.opts.Key); ok {
				switch {
				case st == nil || cur.Version != st.candVersion:
					// The lane holds a candidate the trainer did not stage
					// (an operator's /v1/swap{stage:true} push): never stomp
					// it — the operator promotes or aborts it explicitly.
					stage = false
					t.logf("train: round %d: lane holds an external candidate (v%d) — not staging the trainer's", round, cur.Version)
				default:
					// Restage only when the new candidate beats the one
					// already shadowing by MinDelta on THIS round's salted
					// evaluation (paired — the staged candidate's recorded
					// score used an older attack draw, and comparing across
					// draws would let noise alone restage, resetting the
					// shadow counters every round and starving the promote
					// gate). Ties keep the accumulated evidence.
					stagedScore := st.cand
					if sm, isCore := localizer.Unwrap(cur.Localizer).(*core.Model); isCore {
						stagedScore = t.scoreOf(sm, round)
					}
					if res.Candidate.Total() >= stagedScore.Total()-t.opts.MinDelta {
						stage = false
					}
				}
			}
			if stage {
				// StageIf makes the decision above atomic with the stage: a
				// /v1/swap{stage:true} push that slips in between fails the
				// expectation instead of being silently replaced.
				expect := uint64(0)
				if st != nil {
					expect = st.candVersion
				}
				c, err := t.reg.StageIf(t.opts.Key, localizer.FromCore(t.name, cand), expect)
				switch {
				case errors.Is(err, localizer.ErrCandidateConflict):
					// An operator claimed the lane concurrently: yield — and
					// if they displaced our candidate, drop its record.
					t.mu.Lock()
					t.staged = nil
					t.mu.Unlock()
					t.logf("train: round %d: lane claimed concurrently — not staging (%v)", round, err)
				case err != nil:
					return failRestore(err)
				default:
					t.mu.Lock()
					t.staged = &stagedState{
						candVersion: c.Version,
						final:       final,
						cand:        res.Candidate,
						inc:         res.Incumbent,
					}
					t.mu.Unlock()
				}
			}
			res.Swapped, gateErr = t.maybePromote()
		}
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
	// Staged/CandidateVersion describe the lane AFTER the round: a
	// promotion or a conflict-abort inside maybePromote clears them.
	res.Staged = t.staged != nil
	res.CandidateVersion = 0
	if t.staged != nil {
		res.CandidateVersion = t.staged.candVersion
	}
	res.Streak = t.streak
	t.mu.Unlock()
	t.logf("train: round %d: feedback %d, candidate %.4f (clean %.4f + attacked %.4f) vs incumbent %.4f — win=%v streak=%d staged=%v swapped=%v (v%d)",
		round, len(fb), res.Candidate.Total(), res.Candidate.Clean, res.Candidate.Attacked,
		res.Incumbent.Total(), res.Win, res.Streak, res.Staged, res.Swapped, res.Version)
	return res, nil
}

// maybePromote promotes the staged candidate if the shadow gate allows:
// immediately when the gate is disabled (Shadow nil or PromoteAfter 0),
// otherwise once the candidate has scored PromoteAfter live shadow rows with
// at least MinAgreement agreement. Caller holds runMu. Returns whether a
// promotion happened; a non-nil error reports a candidate withdrawn on a
// version conflict (also recorded in stats.LastError).
func (t *Trainer) maybePromote() (bool, error) {
	t.mu.Lock()
	st := t.staged
	t.mu.Unlock()
	if st == nil {
		return false, nil
	}
	if t.opts.Shadow != nil && t.opts.PromoteAfter > 0 {
		v, rows, agree := t.opts.Shadow()
		if v != st.candVersion || rows < t.opts.PromoteAfter {
			return false, nil
		}
		if t.opts.MinAgreement > 0 && float64(agree) < t.opts.MinAgreement*float64(rows) {
			return false, nil
		}
	}
	if t.prePromote != nil {
		t.prePromote()
	}
	// PromoteIf pins the promotion to the exact candidate the gate
	// validated: a concurrent external stage/abort fails the expectation
	// instead of installing a model the trainer never evaluated.
	version, err := t.reg.PromoteIf(t.opts.Key, st.candVersion)
	switch {
	case errors.Is(err, localizer.ErrCandidateConflict), errors.Is(err, localizer.ErrNoCandidate):
		// The lane no longer holds the trainer's candidate — an operator
		// aborted it or staged their own over it. Leave the lane alone;
		// drop the local record and let the hysteresis rebuild.
		t.mu.Lock()
		t.staged = nil
		t.streak = 0
		t.mu.Unlock()
		t.logf("train: staged candidate %d no longer in the lane — dropping it (%v)", st.candVersion, err)
		return false, nil
	case err != nil:
		// The live slot moved past the candidate's base (a manual weight
		// push while it was shadowing): installing the candidate would
		// discard that work, so withdraw it; the next round detects the
		// drift and rebuilds from the live weights. Either way the reported
		// version must track what is actually served, not the stale base.
		t.reg.AbortIf(t.opts.Key, st.candVersion)
		live, _ := t.reg.Get(t.opts.Key)
		t.mu.Lock()
		t.staged = nil
		t.streak = 0
		t.stats.Aborts++
		t.stats.LastError = err.Error()
		t.stats.Version = live.Version
		t.mu.Unlock()
		t.logf("train: discarding candidate — %v", err)
		return false, err
	}
	t.mu.Lock()
	t.ckpt = st.final
	t.version = version
	t.staged = nil
	t.streak = 0
	t.stats.Swaps++
	t.stats.Version = version
	if t.opts.RegretWindow > 0 {
		t.regret = &regretState{version: version, ticksLeft: t.opts.RegretWindow}
	}
	t.mu.Unlock()
	t.logf("train: promoted candidate %d to live version %d (candidate %.4f vs incumbent %.4f on holdout)",
		st.candVersion, version, st.cand.Total(), st.inc.Total())
	return true, nil
}

// promoteCheck runs the shadow-gate check outside a fine-tune round — shadow
// evidence accumulates from live traffic between rounds, so a staged
// candidate can earn promotion on any ticker tick.
func (t *Trainer) promoteCheck() {
	t.mu.Lock()
	staged := t.staged != nil
	t.mu.Unlock()
	if !staged {
		return
	}
	t.runMu.Lock()
	defer t.runMu.Unlock()
	t.maybePromote()
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
		t.staged = nil // Rollback also clears the registry's candidate slot
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

// Promote is the manual override: it promotes whatever candidate is staged
// under the trainer's key RIGHT NOW — whether the trainer staged it or an
// operator pushed it into the lane externally — bypassing the shadow
// evidence gate. The regret window (when configured) still guards the
// forced promotion: the displaced snapshot is retained by the registry and
// each regret tick scores it against the promoted model on the same salted
// evaluation. Returns the new live version.
func (t *Trainer) Promote() (uint64, error) {
	t.runMu.Lock()
	defer t.runMu.Unlock()
	cand, ok := t.reg.Candidate(t.opts.Key)
	if !ok {
		return 0, fmt.Errorf("%w: %s", localizer.ErrNoCandidate, t.opts.Key)
	}
	// Pin to the observed candidate: a restage racing this call surfaces as
	// a conflict for the operator to retry, not a silent promotion of a
	// different model than the one they looked at.
	version, err := t.reg.PromoteIf(t.opts.Key, cand.Version)
	if err != nil {
		return 0, err
	}
	t.mu.Lock()
	if t.staged != nil && t.staged.candVersion == cand.Version {
		// The trainer's own candidate: adopt its training continuation.
		t.ckpt = t.staged.final
		t.version = version
	} else {
		// Externally staged model: no optimizer history — force the next
		// round to rebuild the continuation from the live weights.
		t.version = 0
	}
	t.staged = nil
	t.streak = 0
	t.stats.Swaps++
	t.stats.Version = version
	if t.opts.RegretWindow > 0 {
		t.regret = &regretState{version: version, ticksLeft: t.opts.RegretWindow}
	}
	t.mu.Unlock()
	t.logf("train: manual promote of candidate %d to live version %d", cand.Version, version)
	return version, nil
}

// Abort is the manual override that withdraws the staged candidate and
// resets the hysteresis streak. Reports whether a candidate was staged.
func (t *Trainer) Abort() bool {
	t.runMu.Lock()
	defer t.runMu.Unlock()
	aborted := t.reg.Abort(t.opts.Key)
	t.mu.Lock()
	t.staged = nil
	t.streak = 0
	if aborted {
		t.stats.Aborts++
	}
	t.mu.Unlock()
	if aborted {
		t.logf("train: manual abort of the staged candidate for %s", t.opts.Key)
	}
	return aborted
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
		Epsilon:    t.opts.AttackEpsilon,
		PhiPercent: t.opts.AttackPhi,
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
