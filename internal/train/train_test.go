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
	stub := localizer.Wrap("stub", ds.NumAPs, ds.NumRPs, nil, func(dst []int, x *mat.Matrix) []int {
		if dst == nil {
			dst = make([]int, x.Rows)
		}
		return dst
	})
	if _, err := reg.Register(stubKey, stub); err != nil {
		t.Fatal(err)
	}
	opts = fastOptions(ds, stubKey)
	if _, err := New(reg, opts); err == nil {
		t.Error("expected error for a non-CALLOC localizer")
	}

	weakIncumbent(t, reg, key, ds)
	opts = fastOptions(ds, key)
	opts.MinAgreement = 1.5
	if _, err := New(reg, opts); err == nil || !strings.Contains(err.Error(), "MinAgreement") {
		t.Errorf("want MinAgreement error from New, got %v", err)
	}
	if _, err := New(reg, fastOptions(ds, key)); err != nil {
		t.Fatalf("valid construction failed: %v", err)
	}
}

// Each rejected policy is accepted by the zero-means-default rules yet
// silently disables part of the gate: a NaN delta never wins or never rolls
// back, a NaN rate trains into NaN weights, an agreement floor above 1
// never promotes.
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
		{"agreement above 1", Policy{MinAgreement: 1.5}, "MinAgreement"},
		{"negative agreement", Policy{MinAgreement: -0.1}, "MinAgreement"},
		{"NaN agreement", Policy{MinAgreement: nan}, "MinAgreement"},
		{"zero policy", Policy{}, ""},
		{"full agreement", Policy{MinAgreement: 1, MinDelta: -0.5, LearningRate: -1}, ""},
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
		// Deregister so a leaked round fails fast — and observably bumps
		// Stats().Rounds.
		reg.Deregister(key)

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
// candidate, the promotion yields (ErrVersionConflict) — and the trainer's
// reported version must refresh to what is actually being served, never a
// number older than the live snapshot.
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
	// Interleave deterministically: the push lands right before Promote.
	tr.prePromote = func() {
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
	if live.Version != 2 {
		t.Fatalf("manual push missing from the registry: v%d", live.Version)
	}
	st := tr.Stats()
	if st.Version != live.Version {
		t.Fatalf("trainer reports version %d, live is %d — stale after the conflict", st.Version, live.Version)
	}
	if res.Version != live.Version {
		t.Fatalf("round reports version %d, live is %d", res.Version, live.Version)
	}
	if st.Aborts != 1 || st.Staged {
		t.Fatalf("conflicted candidate not withdrawn: %+v", st)
	}
	if st.LastError == "" {
		t.Fatal("the conflict must stay visible in LastError, not be wiped by the round's tail")
	}
	if res.Staged {
		t.Fatalf("round still reports the aborted candidate as staged: %+v", res)
	}
	if _, ok := reg.Candidate(key); ok {
		t.Fatal("candidate left staged after the conflict")
	}
}

// TestTrainerRespectsExternalCandidate: a candidate an operator staged
// directly (the /v1/swap{stage:true} path) must never be stomped by the
// trainer's own staging, aborted by a losing round, or promoted by the
// trainer's gate on its behalf.
func TestTrainerRespectsExternalCandidate(t *testing.T) {
	ds := testDataset(t)
	reg := localizer.NewRegistry()
	key := localizer.Key{Building: ds.BuildingID, Floor: 0, Backend: "calloc"}
	weakIncumbent(t, reg, key, ds)

	opts := fastOptions(ds, key)
	opts.Lessons = curriculum.Schedule(1, 10, curriculum.DefaultEpsilon)
	opts.EpochsPerLesson = 1
	tr, err := New(reg, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	var scoreMu sync.Mutex
	candScore := 0.2
	tr.scoreFn = func(m *core.Model, _ int64) Scores {
		scoreMu.Lock()
		defer scoreMu.Unlock()
		if snap, ok := reg.Get(key); ok {
			if lm, isCore := localizer.Unwrap(snap.Localizer).(*core.Model); isCore && lm == m {
				return Scores{Clean: 1.0}
			}
		}
		return Scores{Clean: candScore}
	}

	// An operator stages their own model for shadow evaluation.
	external, err := core.NewModel(smallConfig(ds))
	if err != nil {
		t.Fatal(err)
	}
	if err := external.SetMemory(ds.Train); err != nil {
		t.Fatal(err)
	}
	ext, err := reg.Stage(key, localizer.FromCore("EXTERNAL", external))
	if err != nil {
		t.Fatal(err)
	}

	// A winning trainer round must leave the operator's candidate in place
	// (not stomp it, not promote it — the trainer never validated it).
	r, err := tr.FineTune()
	if err != nil {
		t.Fatal(err)
	}
	if r.Swapped {
		t.Fatalf("trainer promoted a candidate it never validated: %+v", r)
	}
	c, ok := reg.Candidate(key)
	if !ok || c.Version != ext.Version || localizer.Unwrap(c.Localizer).(*core.Model) != external {
		t.Fatalf("winning round stomped the external candidate: (%+v, %v)", c, ok)
	}
	if snap, _ := reg.Get(key); snap.Version != 1 {
		t.Fatalf("live version moved: v%d", snap.Version)
	}

	// A losing trainer round must not abort it either.
	scoreMu.Lock()
	candScore = 2.0
	scoreMu.Unlock()
	if _, err := tr.FineTune(); err != nil {
		t.Fatal(err)
	}
	if c, ok := reg.Candidate(key); !ok || c.Version != ext.Version {
		t.Fatalf("losing round aborted the external candidate: (%+v, %v)", c, ok)
	}

	// The explicit manual override is the operator's path: it promotes the
	// external candidate and arms nothing it shouldn't.
	version, err := tr.Promote()
	if err != nil || version != 2 {
		t.Fatalf("manual promote of the external candidate = (%d, %v)", version, err)
	}
	if snap, _ := reg.Get(key); localizer.Unwrap(snap.Localizer).(*core.Model) != external {
		t.Fatal("manual promote did not install the external candidate")
	}
}

// TestGateStateMachine drives the two-phase gate deterministically with
// scripted holdout scores: hysteresis below StageAfter, stage on the filled
// streak, abort on a losing round, MinDelta near-wins, the shadow-evidence
// promote gate (rows then agreement), rollback on regret, and a clean
// regret-window expiry.
func TestGateStateMachine(t *testing.T) {
	ds := testDataset(t)
	reg := localizer.NewRegistry()
	key := localizer.Key{Building: ds.BuildingID, Floor: 0, Backend: "calloc"}
	incumbent := weakIncumbent(t, reg, key, ds)

	opts := fastOptions(ds, key)
	opts.Lessons = curriculum.Schedule(1, 10, curriculum.DefaultEpsilon)
	opts.EpochsPerLesson = 1
	opts.MinDelta = 0.1
	opts.StageAfter = 2
	opts.PromoteAfter = 10
	opts.MinAgreement = 0.6
	opts.RegretWindow = 2
	opts.RegretDelta = 0.05
	var shadowMu sync.Mutex
	var shRows, shAgree int64
	setShadow := func(rows, agree int64) {
		shadowMu.Lock()
		shRows, shAgree = rows, agree
		shadowMu.Unlock()
	}
	opts.Shadow = func() (uint64, int64, int64) {
		shadowMu.Lock()
		defer shadowMu.Unlock()
		c, _ := reg.Candidate(key)
		return c.Version, shRows, shAgree
	}
	tr, err := New(reg, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	// Scripted holdout results: the registry's live model scores liveScore,
	// anything else (a fresh candidate) scores candScore.
	var scoreMu sync.Mutex
	liveScore, candScore := 1.0, 0.2
	setScores := func(live, cand float64) {
		scoreMu.Lock()
		liveScore, candScore = live, cand
		scoreMu.Unlock()
	}
	tr.scoreFn = func(m *core.Model, _ int64) Scores {
		scoreMu.Lock()
		defer scoreMu.Unlock()
		if snap, ok := reg.Get(key); ok {
			if lm, isCore := localizer.Unwrap(snap.Localizer).(*core.Model); isCore && lm == m {
				return Scores{Clean: liveScore}
			}
		}
		return Scores{Clean: candScore}
	}
	mustRound := func() Round {
		t.Helper()
		r, err := tr.FineTune()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	// Win 1 of 2: nothing staged below the hysteresis depth.
	r := mustRound()
	if !r.Win || r.Streak != 1 || r.Staged || r.Swapped {
		t.Fatalf("round 1 = %+v", r)
	}
	if _, ok := reg.Candidate(key); ok {
		t.Fatal("candidate staged before the streak filled")
	}

	// Win 2 of 2: staged; the shadow gate holds promotion.
	r = mustRound()
	if !r.Staged || r.Swapped || r.CandidateVersion != 1 {
		t.Fatalf("round 2 = %+v", r)
	}
	if st := tr.Stats(); !st.Staged || st.Streak != 2 || st.CandidateVersion != 1 {
		t.Fatalf("stats after stage: %+v", st)
	}

	// Hysteresis reset: a losing round aborts the staged candidate.
	setScores(1.0, 2.0)
	r = mustRound()
	if r.Win || r.Staged || r.Streak != 0 {
		t.Fatalf("losing round = %+v", r)
	}
	if _, ok := reg.Candidate(key); ok {
		t.Fatal("staged candidate survived a losing round")
	}
	if st := tr.Stats(); st.Aborts != 1 {
		t.Fatalf("abort not counted: %+v", st)
	}

	// A near-win inside MinDelta does not count.
	setScores(1.0, 0.95)
	if r = mustRound(); r.Win || r.Streak != 0 {
		t.Fatalf("win within MinDelta counted: %+v", r)
	}

	// Rebuild the streak; promotion waits for shadow evidence.
	setScores(1.0, 0.2)
	mustRound()
	r = mustRound()
	if !r.Staged || r.Swapped || r.CandidateVersion != 2 {
		t.Fatalf("restage = %+v", r)
	}
	// Another winning round that is NOT materially better than the staged
	// candidate keeps it (and its accumulated shadow evidence) instead of
	// restaging with a reset counter bucket.
	r = mustRound()
	if !r.Staged || r.CandidateVersion != 2 {
		t.Fatalf("equal-quality win restaged: %+v", r)
	}
	if c, ok := reg.Candidate(key); !ok || c.Version != 2 {
		t.Fatalf("registry candidate churned: %+v ok=%v", c, ok)
	}
	tr.promoteCheck() // no shadow rows yet
	if snap, _ := reg.Get(key); snap.Version != 1 {
		t.Fatalf("promoted without shadow rows: v%d", snap.Version)
	}
	setShadow(20, 5) // enough rows, agreement 0.25 < 0.6
	tr.promoteCheck()
	if snap, _ := reg.Get(key); snap.Version != 1 {
		t.Fatalf("promoted below MinAgreement: v%d", snap.Version)
	}
	setShadow(20, 15) // agreement 0.75
	tr.promoteCheck()
	snap, _ := reg.Get(key)
	if snap.Version != 2 {
		t.Fatalf("shadow gate satisfied but not promoted: v%d", snap.Version)
	}
	st := tr.Stats()
	if st.Swaps != 1 || st.Staged || st.RegretTicksLeft != 2 || st.Version != 2 {
		t.Fatalf("post-promotion stats: %+v", st)
	}
	if _, ok := reg.Previous(key); !ok {
		t.Fatal("no rollback target retained after promotion")
	}

	// Regret window: a clean tick passes, then a regression beyond the
	// displaced baseline (1.0 + 0.05) rolls back to the incumbent.
	setScores(0.2, 0.2)
	tr.regretCheck()
	if st := tr.Stats(); st.RegretTicksLeft != 1 || st.Rollbacks != 0 {
		t.Fatalf("clean regret tick: %+v", st)
	}
	setScores(2.0, 0.2)
	tr.regretCheck()
	snap, _ = reg.Get(key)
	if snap.Version != 3 {
		t.Fatalf("regression did not roll back: v%d", snap.Version)
	}
	if lm, _ := localizer.Unwrap(snap.Localizer).(*core.Model); lm != incumbent {
		t.Fatal("rollback did not restore the displaced incumbent")
	}
	st = tr.Stats()
	if st.Rollbacks != 1 || st.RegretTicksLeft != 0 || st.Version != 3 {
		t.Fatalf("rollback stats: %+v", st)
	}

	// Promote once more and let the regret window expire cleanly.
	setShadow(0, 0)
	setScores(1.0, 0.2)
	mustRound()
	r = mustRound()
	if !r.Staged || r.CandidateVersion != 3 {
		t.Fatalf("restage after rollback = %+v", r)
	}
	setShadow(50, 50)
	tr.promoteCheck()
	if snap, _ = reg.Get(key); snap.Version != 4 {
		t.Fatalf("second promotion missing: v%d", snap.Version)
	}
	setScores(0.2, 0.2)
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

// TestABGateUnderRoutedTraffic is the end-to-end -race hammer for the A/B
// lane: concurrent clients route traffic through the serving engine while a
// real fine-tune stages a candidate, the candidate earns shadow exposure
// from that live traffic, the shadow gate promotes it, and a forced
// regression rolls it back — every response staying valid throughout.
func TestABGateUnderRoutedTraffic(t *testing.T) {
	ds := testDataset(t)
	reg := localizer.NewRegistry()
	key := localizer.Key{Building: ds.BuildingID, Floor: 0, Backend: "calloc"}
	incumbent := weakIncumbent(t, reg, key, ds)

	engine, err := serve.New(reg, serve.Options{
		MaxBatch: 8, Workers: 2, ABFraction: 2,
	})
	if err != nil {
		t.Fatal(err)
	}

	opts := fastOptions(ds, key)
	opts.StageAfter = 1
	opts.PromoteAfter = 16
	opts.RegretWindow = 1
	opts.Shadow = func() (uint64, int64, int64) {
		st, ok := engine.ABStats(key)
		if !ok {
			return 0, 0, 0
		}
		return st.CandidateVersion, st.Rows, st.Agree
	}
	tr, err := New(reg, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	queries := holdoutOf(ds)
	stopTraffic := make(chan struct{})
	var maxVersion atomic.Uint64
	var trafficWg sync.WaitGroup
	for c := 0; c < 3; c++ {
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

	// One real fine-tune round: wins against the untrained incumbent and
	// stages — but with the shadow gate armed it must NOT promote yet.
	for _, s := range ds.Train {
		if err := tr.AddFeedback(s.RSS, s.RP); err != nil {
			t.Fatal(err)
		}
	}
	res, err := tr.FineTune()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Win || !res.Staged {
		t.Fatalf("fine-tuned candidate vs untrained incumbent = %+v", res)
	}
	if res.Swapped {
		t.Fatalf("promoted before any shadow exposure: %+v", res)
	}

	// Shadow rows accumulate from the live routed traffic; the promote
	// check (normally a ticker duty) fires once the sample fills.
	deadline := time.Now().Add(30 * time.Second)
	for {
		tr.promoteCheck()
		if snap, _ := reg.Get(key); snap.Version == 2 {
			break
		}
		if time.Now().After(deadline) {
			ab, _ := engine.ABStats(key)
			t.Fatalf("never promoted: trainer %+v, shadow %+v", tr.Stats(), ab)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if ab, ok := engine.ABStats(key); !ok || ab.Rows < opts.PromoteAfter {
		t.Fatalf("promoted with %d shadow rows, gate requires %d", ab.Rows, opts.PromoteAfter)
	}
	if st := tr.Stats(); st.Swaps != 1 || st.Version != 2 {
		t.Fatalf("post-promotion trainer stats: %+v", st)
	}

	// Force a regression: the promoted model's holdout score collapses, so
	// the regret check must roll back to the retained incumbent — all while
	// traffic keeps flowing.
	tr.scoreFn = func(m *core.Model, _ int64) Scores {
		if snap, ok := reg.Get(key); ok {
			if lm, isCore := localizer.Unwrap(snap.Localizer).(*core.Model); isCore && lm == m {
				return Scores{Clean: 10}
			}
		}
		return Scores{}
	}
	tr.regretCheck()
	snap, _ := reg.Get(key)
	if snap.Version != 3 {
		t.Fatalf("forced regression did not roll back: v%d", snap.Version)
	}
	if lm, _ := localizer.Unwrap(snap.Localizer).(*core.Model); lm != incumbent {
		t.Fatal("rollback did not restore the incumbent model")
	}
	if st := tr.Stats(); st.Rollbacks != 1 {
		t.Fatalf("rollback not counted: %+v", st)
	}

	// Traffic keeps being served on the rolled-back version.
	time.Sleep(20 * time.Millisecond)
	close(stopTraffic)
	trafficWg.Wait()
	engine.Close()
	if seen := maxVersion.Load(); seen > 3 {
		t.Fatalf("traffic observed version %d beyond installed 3", seen)
	}
}

// TestPromoteYieldsToConcurrentExternalStage: an operator staging their own
// candidate between the gate passing and the promotion must win — the
// trainer yields (PromoteIf conflict) instead of installing a model it
// never validated or stomping the operator's push.
func TestPromoteYieldsToConcurrentExternalStage(t *testing.T) {
	ds := testDataset(t)
	reg := localizer.NewRegistry()
	key := localizer.Key{Building: ds.BuildingID, Floor: 0, Backend: "calloc"}
	weakIncumbent(t, reg, key, ds)

	opts := fastOptions(ds, key)
	opts.Lessons = curriculum.Schedule(1, 10, curriculum.DefaultEpsilon)
	opts.EpochsPerLesson = 1
	tr, err := New(reg, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tr.scoreFn = func(m *core.Model, _ int64) Scores {
		if snap, ok := reg.Get(key); ok {
			if lm, isCore := localizer.Unwrap(snap.Localizer).(*core.Model); isCore && lm == m {
				return Scores{Clean: 1.0}
			}
		}
		return Scores{Clean: 0.2}
	}
	external, err := core.NewModel(smallConfig(ds))
	if err != nil {
		t.Fatal(err)
	}
	if err := external.SetMemory(ds.Train); err != nil {
		t.Fatal(err)
	}
	var extVersion uint64
	tr.prePromote = func() {
		c, err := reg.Stage(key, localizer.FromCore("EXTERNAL", external))
		if err != nil {
			t.Error(err)
			return
		}
		extVersion = c.Version
	}

	res, err := tr.FineTune()
	if err != nil {
		t.Fatal(err)
	}
	if res.Swapped {
		t.Fatalf("trainer promoted past a concurrent external stage: %+v", res)
	}
	if snap, _ := reg.Get(key); snap.Version != 1 {
		t.Fatalf("live version moved to %d — something was promoted", snap.Version)
	}
	c, ok := reg.Candidate(key)
	if !ok || c.Version != extVersion || localizer.Unwrap(c.Localizer).(*core.Model) != external {
		t.Fatalf("operator's candidate lost the race it should win: (%+v, %v)", c, ok)
	}
	if st := tr.Stats(); st.Staged || st.Swaps != 0 {
		t.Fatalf("trainer still tracks the displaced candidate: %+v", st)
	}
}
