package train

import (
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"calloc/internal/core"
	"calloc/internal/curriculum"
	"calloc/internal/device"
	"calloc/internal/fingerprint"
	"calloc/internal/floorplan"
	"calloc/internal/leakcheck"
	"calloc/internal/localizer"
	"calloc/internal/mat"
	"calloc/internal/serve"
)

// testDataset builds a small deterministic dataset.
func testDataset(t testing.TB) *fingerprint.Dataset {
	t.Helper()
	spec := floorplan.Spec{
		ID: 42, Name: "TrainTest", VisibleAPs: 24, PathLengthM: 10,
		Characteristics: "test",
		Model:           floorplan.Registry()[0].Model,
	}
	b := floorplan.Build(spec, 3)
	ds, err := fingerprint.Collect(b, device.Registry(), fingerprint.DefaultCollectConfig())
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func smallConfig(ds *fingerprint.Dataset) core.Config {
	cfg := core.DefaultConfig(ds.NumAPs, ds.NumRPs)
	cfg.EmbedDim = 32
	cfg.AttnDim = 16
	return cfg
}

// weakIncumbent registers an untrained CALLOC model — the worst plausible
// incumbent, so a real fine-tune reliably clears the swap gate.
func weakIncumbent(t testing.TB, reg *localizer.Registry, key localizer.Key, ds *fingerprint.Dataset) *core.Model {
	t.Helper()
	m, err := core.NewModel(smallConfig(ds))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetMemory(ds.Train); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register(key, localizer.FromCore("CALLOC", m)); err != nil {
		t.Fatal(err)
	}
	return m
}

// stubOf is a localizer of the dataset's shape that wraps no core.Model.
func stubOf(ds *fingerprint.Dataset) localizer.Localizer {
	return localizer.Wrap("stub", ds.NumAPs, ds.NumRPs, nil, func(dst []int, x *mat.Matrix) []int {
		if dst == nil {
			dst = make([]int, x.Rows)
		}
		return dst
	})
}

func holdoutOf(ds *fingerprint.Dataset) []fingerprint.Sample {
	var out []fingerprint.Sample
	for _, samples := range ds.Test {
		out = append(out, samples...)
	}
	return out
}

func fastOptions(ds *fingerprint.Dataset, key localizer.Key) Options {
	return Options{
		Key:     key,
		Config:  smallConfig(ds),
		Base:    ds.Train,
		Holdout: holdoutOf(ds),
		Policy: Policy{
			EpochsPerLesson: 8,
			LearningRate:    0.02,
			BatchSize:       32,
			MinFeedback:     4,
			Interval:        10 * time.Millisecond,
			Seed:            1,
		},
	}
}

func TestNewValidation(t *testing.T) {
	ds := testDataset(t)
	reg := localizer.NewRegistry()
	key := localizer.Key{Building: ds.BuildingID, Floor: 0, Backend: "calloc"}

	if _, err := New(nil, fastOptions(ds, key)); err == nil {
		t.Error("expected error for nil registry")
	}
	if _, err := New(reg, fastOptions(ds, key)); err == nil {
		t.Error("expected error for unregistered key")
	}
	opts := fastOptions(ds, key)
	opts.Base = nil
	if _, err := New(reg, opts); err == nil {
		t.Error("expected error for empty base")
	}
	opts = fastOptions(ds, key)
	opts.Holdout = nil
	if _, err := New(reg, opts); err == nil {
		t.Error("expected error for empty holdout")
	}
	// A registered localizer that does not wrap a core.Model must be
	// rejected — the trainer can only continue a CALLOC curriculum.
	stubKey := localizer.Key{Building: ds.BuildingID, Floor: 0, Backend: "stub"}
	if _, err := reg.Register(stubKey, stubOf(ds)); err != nil {
		t.Fatal(err)
	}
	opts = fastOptions(ds, stubKey)
	if _, err := New(reg, opts); err == nil {
		t.Error("expected error for a non-CALLOC localizer")
	}

	weakIncumbent(t, reg, key, ds)
	opts = fastOptions(ds, key)
	opts.MinDelta = math.NaN()
	if _, err := New(reg, opts); err == nil || !strings.Contains(err.Error(), "MinDelta") {
		t.Errorf("want MinDelta error from New, got %v", err)
	}
	if _, err := New(reg, fastOptions(ds, key)); err != nil {
		t.Fatalf("valid construction failed: %v", err)
	}
}

// Each rejected policy is accepted by the zero-means-default rules yet
// silently disables part of the gate: a NaN delta never wins or never rolls
// back, and a NaN rate trains into NaN weights.
func TestPolicyValidate(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		p    Policy
		want string // substring of the error; "" means valid
	}{
		{"NaN min delta", Policy{MinDelta: nan}, "MinDelta"},
		{"infinite min delta", Policy{MinDelta: -inf}, "MinDelta"},
		{"NaN regret delta", Policy{RegretDelta: nan}, "RegretDelta"},
		{"NaN learning rate", Policy{LearningRate: nan}, "LearningRate"},
		{"infinite learning rate", Policy{LearningRate: inf}, "LearningRate"},
		{"zero policy", Policy{}, ""},
		{"negative knobs", Policy{MinDelta: -0.5, LearningRate: -1}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.p.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
}

func TestAddFeedbackValidation(t *testing.T) {
	ds := testDataset(t)
	reg := localizer.NewRegistry()
	key := localizer.Key{Building: ds.BuildingID, Floor: 0, Backend: "calloc"}
	weakIncumbent(t, reg, key, ds)
	opts := fastOptions(ds, key)
	opts.MaxFeedback = 3
	tr, err := New(reg, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	good := ds.Test["OP3"][0]
	if err := tr.AddFeedback(good.RSS, good.RP); err != nil {
		t.Fatal(err)
	}
	if err := tr.AddFeedback(good.RSS[:3], good.RP); err == nil {
		t.Error("expected error for wrong feature count")
	}
	if err := tr.AddFeedback(good.RSS, ds.NumRPs); err == nil {
		t.Error("expected error for out-of-range label")
	}
	bad := append([]float64(nil), good.RSS...)
	bad[0] = bad[0] / 0 // +Inf
	if err := tr.AddFeedback(bad, good.RP); err == nil {
		t.Error("expected error for non-finite RSS")
	}

	// The online set is a sliding window of MaxFeedback samples.
	for i := 0; i < 10; i++ {
		if err := tr.AddFeedback(good.RSS, good.RP); err != nil {
			t.Fatal(err)
		}
	}
	st := tr.Stats()
	if st.FeedbackHeld != 3 {
		t.Fatalf("held %d feedback samples, want the cap 3", st.FeedbackHeld)
	}
	if st.FeedbackTotal != 11 {
		t.Fatalf("accepted %d samples, want 11", st.FeedbackTotal)
	}
	if st.FeedbackPending != 11 {
		t.Fatalf("pending %d, want 11", st.FeedbackPending)
	}
}

// TestFineTuneSwapsUnderRoutedTraffic is the end-to-end -race hammer for the
// online pipeline: concurrent clients route traffic through the serving
// engine while labelled feedback streams in and the real trainer fine-tunes
// and hot-swaps the served CALLOC model. Every response must stay valid
// across swaps, and the swap gate must actually fire (the untrained
// incumbent is beaten by the fine-tuned candidate).
func TestFineTuneSwapsUnderRoutedTraffic(t *testing.T) {
	ds := testDataset(t)
	reg := localizer.NewRegistry()
	key := localizer.Key{Building: ds.BuildingID, Floor: 0, Backend: "calloc"}
	weakIncumbent(t, reg, key, ds)

	tr, err := New(reg, fastOptions(ds, key))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	engine, err := serve.New(reg, serve.Options{MaxBatch: 8, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	// Routed traffic: the building has exactly one floor for this backend,
	// so Route dispatches without a floor classifier.
	queries := holdoutOf(ds)
	stopTraffic := make(chan struct{})
	var maxVersion atomic.Uint64
	var trafficWg sync.WaitGroup
	const clients = 3
	for c := 0; c < clients; c++ {
		trafficWg.Add(1)
		go func(c int) {
			defer trafficWg.Done()
			for i := 0; ; i++ {
				select {
				case <-stopTraffic:
					return
				default:
				}
				q := queries[(c*31+i)%len(queries)]
				res, err := engine.Route(nil, ds.BuildingID, "calloc", q.RSS)
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				if res.Class < 0 || res.Class >= ds.NumRPs {
					t.Errorf("client %d: class %d out of range", c, res.Class)
					return
				}
				for v := maxVersion.Load(); res.Version > v; v = maxVersion.Load() {
					maxVersion.CompareAndSwap(v, res.Version)
				}
			}
		}(c)
	}

	// Feedback: stream labelled online samples (clients re-observing known
	// reference points — never the holdout split, which stays genuinely held
	// out), then fine-tune. Two rounds exercise the checkpoint carry-over
	// between swaps.
	var swaps int
	for round := 0; round < 2; round++ {
		for _, s := range ds.Train {
			if err := tr.AddFeedback(s.RSS, s.RP); err != nil {
				t.Fatal(err)
			}
		}
		res, err := tr.FineTune()
		if err != nil {
			t.Fatal(err)
		}
		if res.Swapped {
			swaps++
			if res.Candidate.Total() >= res.Incumbent.Total() {
				t.Fatalf("round %d swapped without improvement: candidate %.4f vs incumbent %.4f",
					round, res.Candidate.Total(), res.Incumbent.Total())
			}
		} else if res.Candidate.Total() < res.Incumbent.Total() {
			t.Fatalf("round %d improved but did not swap: %.4f vs %.4f",
				round, res.Candidate.Total(), res.Incumbent.Total())
		}
	}
	if swaps == 0 {
		t.Fatal("fine-tuning an untrained incumbent never cleared the swap gate")
	}

	close(stopTraffic)
	trafficWg.Wait()
	engine.Close()

	snap, ok := reg.Get(key)
	if !ok {
		t.Fatal("key vanished")
	}
	if want := uint64(1 + swaps); snap.Version != want {
		t.Fatalf("registry at version %d, want %d (1 + %d swaps)", snap.Version, want, swaps)
	}
	if seen := maxVersion.Load(); seen > snap.Version {
		t.Fatalf("traffic observed version %d beyond installed %d", seen, snap.Version)
	}
	st := tr.Stats()
	if st.Swaps != int64(swaps) || st.Rounds != 2 {
		t.Fatalf("stats %+v disagree with %d swaps over 2 rounds", st, swaps)
	}
	if st.Version != snap.Version {
		t.Fatalf("trainer tracks version %d, registry at %d", st.Version, snap.Version)
	}
}

// TestBackgroundLoopFineTunes: the Start/Close lifecycle — feedback past the
// threshold makes the background loop fine-tune and swap without any manual
// trigger.
func TestBackgroundLoopFineTunes(t *testing.T) {
	ds := testDataset(t)
	reg := localizer.NewRegistry()
	key := localizer.Key{Building: ds.BuildingID, Floor: 0, Backend: "calloc"}
	weakIncumbent(t, reg, key, ds)
	tr, err := New(reg, fastOptions(ds, key))
	if err != nil {
		t.Fatal(err)
	}
	tr.Start()
	defer tr.Close()

	for _, s := range ds.Train {
		if err := tr.AddFeedback(s.RSS, s.RP); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.After(30 * time.Second)
	for {
		if snap, ok := reg.Get(key); ok && snap.Version > 1 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("background loop never swapped: stats %+v", tr.Stats())
		case <-time.After(20 * time.Millisecond):
		}
	}
	if st := tr.Stats(); st.Swaps < 1 || st.FeedbackPending >= st.FeedbackHeld && st.Rounds == 0 {
		t.Fatalf("unexpected stats after background swap: %+v", st)
	}
}

// TestCloseStartRaceLeaksNoRound is the lifecycle regression test: a Close
// racing Start must never return while the loop goroutine is (or is about
// to start) running, and no fine-tune round may begin after Close returns.
// The pre-fix code read an unsynchronized started flag, so Close could
// return without waiting and the 1ns ticker could fire a round afterwards.
func TestCloseStartRaceLeaksNoRound(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	ds := testDataset(t)
	for i := 0; i < 300; i++ {
		reg := localizer.NewRegistry()
		key := localizer.Key{Building: ds.BuildingID, Floor: 0, Backend: "calloc"}
		weakIncumbent(t, reg, key, ds)
		opts := fastOptions(ds, key)
		opts.Interval = time.Nanosecond
		opts.MinFeedback = 1
		tr, err := New(reg, opts)
		if err != nil {
			t.Fatal(err)
		}
		s := ds.Train[0]
		if err := tr.AddFeedback(s.RSS, s.RP); err != nil {
			t.Fatal(err)
		}
		// Swap in a model the trainer cannot continue, so a leaked round
		// fails fast — and observably bumps Stats().Rounds.
		if _, err := reg.Swap(key, stubOf(ds)); err != nil {
			t.Fatal(err)
		}

		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr.Start()
		}()
		tr.Close()
		wg.Wait()

		// If Start won the race and launched the loop, Close must have
		// waited for it to exit.
		tr.lifeMu.Lock()
		started := tr.started
		tr.lifeMu.Unlock()
		if started {
			select {
			case <-tr.done:
			default:
				t.Fatalf("iteration %d: Close returned while the loop goroutine was still running", i)
			}
		}
		// And whatever happened, no round may start after Close returned.
		r0 := tr.Stats().Rounds
		time.Sleep(200 * time.Microsecond)
		if r1 := tr.Stats().Rounds; r1 != r0 {
			t.Fatalf("iteration %d: a fine-tune round ran after Close returned (%d → %d)", i, r0, r1)
		}
	}
}

// TestStartAfterCloseIsNoop: the loop must never launch once Close has run.
func TestStartAfterCloseIsNoop(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	ds := testDataset(t)
	reg := localizer.NewRegistry()
	key := localizer.Key{Building: ds.BuildingID, Floor: 0, Backend: "calloc"}
	weakIncumbent(t, reg, key, ds)
	opts := fastOptions(ds, key)
	opts.Interval = time.Nanosecond
	opts.MinFeedback = 1
	tr, err := New(reg, opts)
	if err != nil {
		t.Fatal(err)
	}
	s := ds.Train[0]
	if err := tr.AddFeedback(s.RSS, s.RP); err != nil {
		t.Fatal(err)
	}
	tr.Close()
	tr.Start()
	time.Sleep(2 * time.Millisecond)
	if got := tr.Stats().Rounds; got != 0 {
		t.Fatalf("Start after Close ran %d rounds", got)
	}
	tr.lifeMu.Lock()
	started := tr.started
	tr.lifeMu.Unlock()
	if started {
		t.Fatal("Start after Close marked the trainer started")
	}
}

// TestFailedRoundRestoresPendingCredit is the feedback-credit regression
// test: a round that fails after consuming the pending count must restore
// it, so the background loop retries on the next tick instead of waiting
// for MinFeedback NEW samples. The pre-fix code zeroed pending
// unconditionally.
func TestFailedRoundRestoresPendingCredit(t *testing.T) {
	ds := testDataset(t)
	reg := localizer.NewRegistry()
	key := localizer.Key{Building: ds.BuildingID, Floor: 0, Backend: "calloc"}
	weakIncumbent(t, reg, key, ds)
	opts := fastOptions(ds, key)
	// Base samples one feature narrower than the model: the round fails in
	// SetMemory — after the pending count was consumed.
	bad := fingerprint.CloneSamples(ds.Train[:8])
	for i := range bad {
		bad[i].RSS = bad[i].RSS[:len(bad[i].RSS)-1]
	}
	opts.Base = bad
	tr, err := New(reg, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	for i := 0; i < opts.MinFeedback; i++ {
		s := ds.Train[i]
		if err := tr.AddFeedback(s.RSS, s.RP); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tr.FineTune(); err == nil {
		t.Fatal("expected the round to fail on the mismatched base")
	}
	if got := tr.Pending(); got != opts.MinFeedback {
		t.Fatalf("failed round left pending=%d, want the %d credits restored", got, opts.MinFeedback)
	}
	st := tr.Stats()
	if st.Rounds != 1 || st.LastError == "" {
		t.Fatalf("failed round not recorded: %+v", st)
	}
	// A second (still failing) attempt must find the credit again.
	if _, err := tr.FineTune(); err == nil {
		t.Fatal("expected the retry to fail too")
	}
	if got := tr.Pending(); got != opts.MinFeedback {
		t.Fatalf("retry consumed the restored credit: pending=%d", got)
	}
}

// TestPromoteConflictRefreshesVersion is the stale-version regression test:
// when a manual weight push lands while the trainer is promoting its
// candidate, SwapIf yields (ErrVersionConflict) instead of discarding the
// push — and the trainer's reported version must refresh to what is actually
// being served, never a number older than the live snapshot.
func TestPromoteConflictRefreshesVersion(t *testing.T) {
	ds := testDataset(t)
	reg := localizer.NewRegistry()
	key := localizer.Key{Building: ds.BuildingID, Floor: 0, Backend: "calloc"}
	weakIncumbent(t, reg, key, ds)
	tr, err := New(reg, fastOptions(ds, key))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	other, err := core.NewModel(smallConfig(ds))
	if err != nil {
		t.Fatal(err)
	}
	if err := other.SetMemory(ds.Train); err != nil {
		t.Fatal(err)
	}
	// Interleave deterministically: the push lands right before SwapIf.
	tr.preSwap = func() {
		if _, err := reg.Swap(key, localizer.FromCore("MANUAL", other)); err != nil {
			t.Error(err)
		}
	}

	for _, s := range ds.Train {
		if err := tr.AddFeedback(s.RSS, s.RP); err != nil {
			t.Fatal(err)
		}
	}
	res, err := tr.FineTune()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Win {
		t.Fatalf("fine-tuned candidate should beat the untrained incumbent: %+v", res)
	}
	if res.Swapped {
		t.Fatal("conflicting promotion must not report a swap")
	}
	live, _ := reg.Get(key)
	if live.Version != 2 || localizer.Unwrap(live.Localizer).(*core.Model) != other {
		t.Fatalf("manual push missing from the registry: %+v", live)
	}
	st := tr.Stats()
	if st.Version != live.Version {
		t.Fatalf("trainer reports version %d, live is %d — stale after the conflict", st.Version, live.Version)
	}
	if res.Version != live.Version {
		t.Fatalf("round reports version %d, live is %d", res.Version, live.Version)
	}
	if st.Swaps != 0 || st.Streak != 0 || st.RegretTicksLeft != 0 {
		t.Fatalf("conflicted candidate counted as promoted: %+v", st)
	}
	if !strings.Contains(st.LastError, "version changed") {
		t.Fatalf("the conflict must stay visible in LastError, not be wiped by the round's tail: %q", st.LastError)
	}
	if _, ok := reg.Previous(key); ok {
		t.Fatal("a rollback target is retained although the trainer promoted nothing")
	}
}

// scriptedTrainer builds a trainer over an untrained incumbent whose holdout
// scores are scripted: the registry's live model scores live, any other
// model (a fresh candidate) scores cand. Rounds train one one-epoch lesson,
// so they are cheap.
func scriptedTrainer(t *testing.T, opts func(*Options)) (tr *Trainer, reg *localizer.Registry, key localizer.Key, setScores func(live, cand float64)) {
	t.Helper()
	ds := testDataset(t)
	reg = localizer.NewRegistry()
	key = localizer.Key{Building: ds.BuildingID, Floor: 0, Backend: "calloc"}
	weakIncumbent(t, reg, key, ds)
	o := fastOptions(ds, key)
	o.Lessons = curriculum.Schedule(1, 10, curriculum.DefaultEpsilon)
	o.EpochsPerLesson = 1
	opts(&o)
	tr, err := New(reg, o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tr.Close)
	var mu sync.Mutex
	liveScore, candScore := 1.0, 0.2
	setScores = func(live, cand float64) {
		mu.Lock()
		liveScore, candScore = live, cand
		mu.Unlock()
	}
	tr.scoreFn = func(m *core.Model, _ int64) Scores {
		mu.Lock()
		defer mu.Unlock()
		if snap, ok := reg.Get(key); ok {
			if lm, isCore := localizer.Unwrap(snap.Localizer).(*core.Model); isCore && lm == m {
				return Scores{Clean: liveScore}
			}
		}
		return Scores{Clean: candScore}
	}
	return tr, reg, key, setScores
}

func mustRound(t *testing.T, tr *Trainer) Round {
	t.Helper()
	r, err := tr.FineTune()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestPromoteStreakNeedsConsecutiveWins: with PromoteStreak 2, win-win
// promotes and win-lose-win does not.
func TestPromoteStreakNeedsConsecutiveWins(t *testing.T) {
	tr, reg, key, setScores := scriptedTrainer(t, func(o *Options) { o.PromoteStreak = 2 })
	live := func() uint64 { snap, _ := reg.Get(key); return snap.Version }

	if r := mustRound(t, tr); !r.Win || r.Swapped || r.Streak != 1 || live() != 1 {
		t.Fatalf("win 1 = %+v at v%d", r, live())
	}
	setScores(1.0, 2.0)
	if r := mustRound(t, tr); r.Win || r.Swapped || r.Streak != 0 || live() != 1 {
		t.Fatalf("lose = %+v at v%d", r, live())
	}
	setScores(1.0, 0.2)
	if r := mustRound(t, tr); !r.Win || r.Swapped || r.Streak != 1 || live() != 1 {
		t.Fatalf("win-lose-win promoted: %+v at v%d", r, live())
	}
	if r := mustRound(t, tr); !r.Win || !r.Swapped || r.Streak != 2 || r.Version != 2 || live() != 2 {
		t.Fatalf("win-win did not promote: %+v at v%d", r, live())
	}
	if st := tr.Stats(); st.Swaps != 1 || st.Streak != 0 || st.Version != 2 {
		t.Fatalf("post-promotion stats: %+v", st)
	}
}

// TestGateStateMachine drives the gate deterministically with scripted
// holdout scores: MinDelta near-wins, promotion through SwapIf with the
// displaced snapshot retained, rollback on regret, and a clean regret-window
// expiry.
func TestGateStateMachine(t *testing.T) {
	tr, reg, key, setScores := scriptedTrainer(t, func(o *Options) {
		o.MinDelta = 0.1
		o.RegretWindow = 2
		o.RegretDelta = 0.05
	})
	incumbent, _ := reg.Get(key)

	// A near-win inside MinDelta does not count.
	setScores(1.0, 0.95)
	if r := mustRound(t, tr); r.Win || r.Swapped || r.Streak != 0 {
		t.Fatalf("win within MinDelta counted: %+v", r)
	}

	// A clear win promotes (PromoteStreak defaults to 1).
	setScores(1.0, 0.2)
	if r := mustRound(t, tr); !r.Win || !r.Swapped || r.Version != 2 {
		t.Fatalf("winning round = %+v", r)
	}
	st := tr.Stats()
	if st.Swaps != 1 || st.RegretTicksLeft != 2 || st.Version != 2 {
		t.Fatalf("post-promotion stats: %+v", st)
	}
	if prev, ok := reg.Previous(key); !ok || prev.Localizer != incumbent.Localizer {
		t.Fatal("the displaced incumbent is not retained for rollback")
	}

	// Regret window: a clean tick passes, then a regression beyond the
	// displaced baseline (1.0 + 0.05) rolls back to the incumbent.
	setScores(0.2, 1.0)
	tr.regretCheck()
	if st := tr.Stats(); st.RegretTicksLeft != 1 || st.Rollbacks != 0 {
		t.Fatalf("clean regret tick: %+v", st)
	}
	setScores(2.0, 1.0)
	tr.regretCheck()
	snap, _ := reg.Get(key)
	if snap.Version != 3 || snap.Localizer != incumbent.Localizer {
		t.Fatalf("regression did not roll back to the incumbent: %+v", snap)
	}
	st = tr.Stats()
	if st.Rollbacks != 1 || st.RegretTicksLeft != 0 || st.Version != 3 {
		t.Fatalf("rollback stats: %+v", st)
	}

	// Promote once more and let the regret window expire cleanly.
	setScores(1.0, 0.2)
	if r := mustRound(t, tr); !r.Swapped || r.Version != 4 {
		t.Fatalf("second promotion = %+v", r)
	}
	setScores(0.2, 1.0)
	tr.regretCheck()
	tr.regretCheck()
	st = tr.Stats()
	if st.RegretTicksLeft != 0 || st.Rollbacks != 1 || st.Swaps != 2 {
		t.Fatalf("window expiry stats: %+v", st)
	}
	if snap, _ = reg.Get(key); snap.Version != 4 {
		t.Fatalf("clean window still rolled back: v%d", snap.Version)
	}
}

// TestOfferGatesAPush: a pushed model goes live only when it beats the
// incumbent by MinDelta, and then exactly like a winning round — retained
// rollback target, armed regret window.
func TestOfferGatesAPush(t *testing.T) {
	tr, reg, key, setScores := scriptedTrainer(t, func(o *Options) {
		o.MinDelta = 0.1
		o.RegretWindow = 1
	})
	ds := testDataset(t)
	pushed, err := core.NewModel(smallConfig(ds))
	if err != nil {
		t.Fatal(err)
	}
	if err := pushed.SetMemory(ds.Train); err != nil {
		t.Fatal(err)
	}

	setScores(1.0, 0.95)
	r, err := tr.Offer(pushed)
	if err != nil || r.Win || r.Swapped || r.Version != 1 {
		t.Fatalf("near-win offer = (%+v, %v)", r, err)
	}
	if snap, _ := reg.Get(key); snap.Version != 1 {
		t.Fatalf("losing offer moved the live slot: v%d", snap.Version)
	}

	setScores(1.0, 0.2)
	r, err = tr.Offer(pushed)
	if err != nil || !r.Swapped || r.Version != 2 || r.Candidate.Total() != 0.2 || r.Incumbent.Total() != 1.0 {
		t.Fatalf("winning offer = (%+v, %v)", r, err)
	}
	if snap, _ := reg.Get(key); localizer.Unwrap(snap.Localizer).(*core.Model) != pushed {
		t.Fatal("winning offer did not install the pushed model")
	}
	if _, ok := reg.Previous(key); !ok {
		t.Fatal("no rollback target retained after the offer")
	}
	if st := tr.Stats(); st.Swaps != 1 || st.RegretTicksLeft != 1 || st.Version != 2 {
		t.Fatalf("post-offer stats: %+v", st)
	}
	// The pushed model has no optimizer history: the next round rebuilds
	// its continuation from the live weights and still runs.
	if _, err := tr.FineTune(); err != nil {
		t.Fatal(err)
	}
}
