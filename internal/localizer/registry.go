package localizer

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Key addresses one served localizer: a building, a floor within it, and a
// backend name ("calloc", "knn", ...). A building's floor classifier — the
// first stage of hierarchical routing — is registered under FloorKey.
type Key struct {
	Building int    `json:"building"`
	Floor    int    `json:"floor"`
	Backend  string `json:"backend"`
}

// ClassifierFloor is the reserved Floor value of a building's floor
// classifier, whose classes are floor indices rather than reference points.
const ClassifierFloor = -1

// FloorBackend is the conventional backend name of a floor classifier.
const FloorBackend = "floor"

// FloorKey returns the registry key of a building's floor classifier.
func FloorKey(building int) Key {
	return Key{Building: building, Floor: ClassifierFloor, Backend: FloorBackend}
}

// Less orders keys by building, floor, backend — the canonical listing
// order shared by Registry.List and the serving layer's per-key stats.
func (k Key) Less(o Key) bool {
	if k.Building != o.Building {
		return k.Building < o.Building
	}
	if k.Floor != o.Floor {
		return k.Floor < o.Floor
	}
	return k.Backend < o.Backend
}

func (k Key) String() string {
	if k.Floor == ClassifierFloor && k.Backend == FloorBackend {
		return fmt.Sprintf("building %d floor-classifier", k.Building)
	}
	return fmt.Sprintf("building %d floor %d backend %q", k.Building, k.Floor, k.Backend)
}

// Snapshot is one immutable registered localizer version. Readers that load
// a snapshot may keep using it for the duration of a batch even after a
// newer version is swapped in — snapshots are never mutated, only replaced.
type Snapshot struct {
	Localizer Localizer
	Version   uint64
}

// Candidate is a staged next version sitting in a key's A/B lane: it shadows
// live traffic (the serving engine scores it on sampled routed requests
// without returning its predictions) until it is promoted to the live slot or
// aborted. Candidate versions form their own sequence per key, independent of
// the live version — restaging bumps the candidate version without touching
// what is served.
type Candidate struct {
	Localizer Localizer
	// Version is the candidate sequence number (per key, starts at 1). The
	// serving layer resets a key's shadow counters when it changes.
	Version uint64
	// Base is the live version the candidate was staged against. Promote
	// refuses with ErrVersionConflict when the live slot has moved past it —
	// the candidate was built from (or validated against) a version nobody
	// serves any more.
	Base uint64
}

// entry is the per-key slot; the snapshot pointer is the hot-swap point. The
// candidate and previous pointers are the A/B lane: cand is the staged next
// version, prev retains the snapshot a Promote displaced so a regretted
// promotion can roll back.
type entry struct {
	snap atomic.Pointer[Snapshot]
	cand atomic.Pointer[Candidate]
	prev atomic.Pointer[Snapshot]

	candSeq uint64 // guarded by the registry writeMu
}

// Registry maps keys to atomically versioned localizer snapshots.
//
// Reads (Get, List) are lock-free: two atomic pointer loads — the
// copy-on-write key map, then the key's current snapshot. Writes (Register,
// Swap, Deregister) serialise on an internal mutex; Register/Deregister
// clone the key map, Swap only replaces the key's snapshot pointer, so a
// version push under load never copies the map and never blocks readers.
//
// The zero Registry is not ready; use NewRegistry.
type Registry struct {
	writeMu sync.Mutex
	entries atomic.Pointer[map[Key]*entry]
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	r := &Registry{}
	m := make(map[Key]*entry)
	r.entries.Store(&m)
	return r
}

func validateLocalizer(key Key, loc Localizer) error {
	if loc == nil {
		return fmt.Errorf("localizer: nil localizer for %s", key)
	}
	if key.Backend == "" {
		return fmt.Errorf("localizer: empty backend name in key for %q", loc.Name())
	}
	if loc.InputDim() <= 0 || loc.NumClasses() <= 0 {
		return fmt.Errorf("localizer: %q has invalid dimensions %d×%d for %s",
			loc.Name(), loc.InputDim(), loc.NumClasses(), key)
	}
	return nil
}

// Register installs loc under key at version 1. Registering an existing key
// is an error — replacing a live localizer must go through Swap, which
// enforces shape stability and advances the version.
func (r *Registry) Register(key Key, loc Localizer) (uint64, error) {
	if err := validateLocalizer(key, loc); err != nil {
		return 0, err
	}
	r.writeMu.Lock()
	defer r.writeMu.Unlock()
	old := *r.entries.Load()
	if _, exists := old[key]; exists {
		return 0, fmt.Errorf("localizer: %s already registered (use Swap to push a new version)", key)
	}
	clone := make(map[Key]*entry, len(old)+1)
	for k, v := range old {
		clone[k] = v
	}
	e := &entry{}
	e.snap.Store(&Snapshot{Localizer: loc, Version: 1})
	clone[key] = e
	r.entries.Store(&clone)
	return 1, nil
}

// ErrVersionConflict is returned by Promote when the key's live version no
// longer matches the candidate's base — someone else published a version
// while the candidate was shadowing.
var ErrVersionConflict = errors.New("localizer: version changed since it was observed")

// Swap atomically replaces key's localizer with loc and returns the new
// version (previous + 1). The key must already be registered and loc must
// preserve the input width and label-space size — lanes and clients sized
// against the old version stay valid across the swap. In-flight batches
// that loaded the previous snapshot finish on it; new batches observe the
// new version immediately.
func (r *Registry) Swap(key Key, loc Localizer) (uint64, error) {
	if err := validateLocalizer(key, loc); err != nil {
		return 0, err
	}
	r.writeMu.Lock()
	defer r.writeMu.Unlock()
	e, ok := (*r.entries.Load())[key]
	if !ok {
		return 0, fmt.Errorf("localizer: %s not registered (use Register first)", key)
	}
	cur := e.snap.Load()
	if loc.InputDim() != cur.Localizer.InputDim() {
		return 0, fmt.Errorf("localizer: swap of %s changes input dim %d→%d",
			key, cur.Localizer.InputDim(), loc.InputDim())
	}
	if loc.NumClasses() != cur.Localizer.NumClasses() {
		return 0, fmt.Errorf("localizer: swap of %s changes label space %d→%d",
			key, cur.Localizer.NumClasses(), loc.NumClasses())
	}
	next := &Snapshot{Localizer: loc, Version: cur.Version + 1}
	e.snap.Store(next)
	// A direct swap breaks the promotion lineage: rolling "back" past it
	// would stomp the version just pushed, so the retained previous is
	// dropped. A staged candidate stays — its Base no longer matches, which
	// Promote reports as ErrVersionConflict rather than silently serving it.
	e.prev.Store(nil)
	return next.Version, nil
}

// ErrNoCandidate is returned by Promote when the key has no staged
// candidate, and by Rollback when no displaced previous snapshot is retained.
var ErrNoCandidate = errors.New("localizer: no staged candidate")

// ErrCandidateConflict is returned by StageIf/PromoteIf when the lane's
// current candidate is not the one the caller last observed — someone else
// (re)staged or aborted while the caller was deciding.
var ErrCandidateConflict = errors.New("localizer: staged candidate changed since it was observed")

// Stage installs loc as key's A/B candidate, replacing any previously staged
// one, and returns the new candidate descriptor. The same shape-stability
// checks as Swap apply (a candidate that could not be promoted must not enter
// the shadow lane); the live slot is untouched, so staging is invisible to
// normal traffic. The candidate records the live version it was staged
// against — Promote later refuses if the live slot moved on.
func (r *Registry) Stage(key Key, loc Localizer) (Candidate, error) {
	return r.stage(key, loc, false, 0)
}

// StageIf is Stage conditioned on the lane's occupancy: expect 0 stages only
// into an EMPTY lane, expect v stages only over the candidate version v the
// caller itself staged earlier. Anything else fails with
// ErrCandidateConflict — an owner (the online trainer) uses it so a
// concurrent external push is never silently replaced.
func (r *Registry) StageIf(key Key, loc Localizer, expect uint64) (Candidate, error) {
	return r.stage(key, loc, true, expect)
}

func (r *Registry) stage(key Key, loc Localizer, conditional bool, expect uint64) (Candidate, error) {
	if err := validateLocalizer(key, loc); err != nil {
		return Candidate{}, err
	}
	r.writeMu.Lock()
	defer r.writeMu.Unlock()
	e, ok := (*r.entries.Load())[key]
	if !ok {
		return Candidate{}, fmt.Errorf("localizer: %s not registered (use Register first)", key)
	}
	if conditional {
		cur := e.cand.Load()
		switch {
		case expect == 0 && cur != nil:
			return Candidate{}, fmt.Errorf("%w: %s lane holds candidate %d, expected it empty",
				ErrCandidateConflict, key, cur.Version)
		case expect != 0 && (cur == nil || cur.Version != expect):
			have := uint64(0)
			if cur != nil {
				have = cur.Version
			}
			return Candidate{}, fmt.Errorf("%w: %s lane holds candidate %d, expected %d",
				ErrCandidateConflict, key, have, expect)
		}
	}
	live := e.snap.Load()
	if loc.InputDim() != live.Localizer.InputDim() {
		return Candidate{}, fmt.Errorf("localizer: staging for %s changes input dim %d→%d",
			key, live.Localizer.InputDim(), loc.InputDim())
	}
	if loc.NumClasses() != live.Localizer.NumClasses() {
		return Candidate{}, fmt.Errorf("localizer: staging for %s changes label space %d→%d",
			key, live.Localizer.NumClasses(), loc.NumClasses())
	}
	e.candSeq++
	c := &Candidate{Localizer: loc, Version: e.candSeq, Base: live.Version}
	e.cand.Store(c)
	return *c, nil
}

// Candidate returns key's staged candidate, if any. Like Get it is lock-free;
// shadow dispatch pins the returned candidate for the duration of one batch.
func (r *Registry) Candidate(key Key) (Candidate, bool) {
	e, ok := (*r.entries.Load())[key]
	if !ok {
		return Candidate{}, false
	}
	c := e.cand.Load()
	if c == nil {
		return Candidate{}, false
	}
	return *c, true
}

// Abort clears key's staged candidate, reporting whether one was staged.
// Shadow batches already holding the candidate finish on it; its predictions
// were never returned to clients, so aborting has no serving-visible effect.
func (r *Registry) Abort(key Key) bool {
	r.writeMu.Lock()
	defer r.writeMu.Unlock()
	e, ok := (*r.entries.Load())[key]
	if !ok || e.cand.Load() == nil {
		return false
	}
	e.cand.Store(nil)
	return true
}

// AbortIf clears key's staged candidate only when it is still at version —
// it lets an owner withdraw exactly the candidate it staged without stomping
// a concurrent restage by someone else. Reports whether the candidate was
// aborted.
func (r *Registry) AbortIf(key Key, version uint64) bool {
	r.writeMu.Lock()
	defer r.writeMu.Unlock()
	e, ok := (*r.entries.Load())[key]
	if !ok {
		return false
	}
	c := e.cand.Load()
	if c == nil || c.Version != version {
		return false
	}
	e.cand.Store(nil)
	return true
}

// Promote moves key's staged candidate into the live slot, advancing the live
// version, and retains the displaced snapshot for Rollback. It fails with
// ErrNoCandidate when nothing is staged and with ErrVersionConflict when the
// live version moved past the candidate's base (someone pushed a version
// while the candidate was shadowing — promoting would silently discard their
// work; the caller should Abort and restage against the new live version).
func (r *Registry) Promote(key Key) (uint64, error) {
	return r.promote(key, 0)
}

// PromoteIf is Promote conditioned on the lane still holding candidate
// version expect: it fails with ErrCandidateConflict when someone (re)staged
// or aborted the lane since the caller observed it, so a gate that validated
// one candidate can never accidentally install another.
func (r *Registry) PromoteIf(key Key, expect uint64) (uint64, error) {
	if expect == 0 {
		return 0, fmt.Errorf("localizer: PromoteIf expects a candidate version ≥ 1")
	}
	return r.promote(key, expect)
}

func (r *Registry) promote(key Key, expect uint64) (uint64, error) {
	r.writeMu.Lock()
	defer r.writeMu.Unlock()
	e, ok := (*r.entries.Load())[key]
	if !ok {
		return 0, fmt.Errorf("localizer: %s not registered", key)
	}
	c := e.cand.Load()
	if c == nil {
		return 0, fmt.Errorf("%w: %s", ErrNoCandidate, key)
	}
	if expect != 0 && c.Version != expect {
		return 0, fmt.Errorf("%w: %s lane holds candidate %d, expected %d",
			ErrCandidateConflict, key, c.Version, expect)
	}
	cur := e.snap.Load()
	if cur.Version != c.Base {
		return 0, fmt.Errorf("%w: %s at version %d, candidate staged against %d",
			ErrVersionConflict, key, cur.Version, c.Base)
	}
	next := &Snapshot{Localizer: c.Localizer, Version: cur.Version + 1}
	e.snap.Store(next)
	e.prev.Store(cur)
	e.cand.Store(nil)
	return next.Version, nil
}

// Rollback restores the snapshot the last Promote displaced, installing it as
// a NEW live version (versions only ever advance, so clients observe the
// rollback exactly like any other hot-swap). The retained previous is
// consumed and any staged candidate is aborted — the promotion lineage that
// led here is regretted wholesale. Fails with ErrNoCandidate when no
// previous snapshot is retained (no promotion since the last rollback/swap).
func (r *Registry) Rollback(key Key) (uint64, error) {
	r.writeMu.Lock()
	defer r.writeMu.Unlock()
	e, ok := (*r.entries.Load())[key]
	if !ok {
		return 0, fmt.Errorf("localizer: %s not registered", key)
	}
	p := e.prev.Load()
	if p == nil {
		return 0, fmt.Errorf("%w: %s has no retained previous snapshot to roll back to", ErrNoCandidate, key)
	}
	cur := e.snap.Load()
	next := &Snapshot{Localizer: p.Localizer, Version: cur.Version + 1}
	e.snap.Store(next)
	e.prev.Store(nil)
	e.cand.Store(nil)
	return next.Version, nil
}

// Previous returns the snapshot the last Promote displaced, if it is still
// retained (no Rollback or Swap consumed it).
func (r *Registry) Previous(key Key) (Snapshot, bool) {
	e, ok := (*r.entries.Load())[key]
	if !ok {
		return Snapshot{}, false
	}
	p := e.prev.Load()
	if p == nil {
		return Snapshot{}, false
	}
	return *p, true
}

// Get returns the current snapshot registered under key.
func (r *Registry) Get(key Key) (Snapshot, bool) {
	e, ok := (*r.entries.Load())[key]
	if !ok {
		return Snapshot{}, false
	}
	return *e.snap.Load(), true
}

// Deregister removes key, reporting whether it was present. Batches already
// holding the key's snapshot finish on it; subsequent Gets miss.
func (r *Registry) Deregister(key Key) bool {
	r.writeMu.Lock()
	defer r.writeMu.Unlock()
	old := *r.entries.Load()
	if _, exists := old[key]; !exists {
		return false
	}
	clone := make(map[Key]*entry, len(old)-1)
	for k, v := range old {
		if k != key {
			clone[k] = v
		}
	}
	r.entries.Store(&clone)
	return true
}

// Len returns the number of registered keys.
func (r *Registry) Len() int { return len(*r.entries.Load()) }

// Info describes one registered localizer for listings (/v1/models).
type Info struct {
	Key        Key    `json:"key"`
	Name       string `json:"name"`
	Version    uint64 `json:"version"`
	InputDim   int    `json:"input_dim"`
	NumClasses int    `json:"classes"`
	// CandidateVersion is the staged A/B candidate's sequence number, 0 when
	// nothing is staged. CandidateName labels it.
	CandidateVersion uint64 `json:"candidate_version,omitempty"`
	CandidateName    string `json:"candidate_name,omitempty"`
	// Precision and WeightBytes report the packed-snapshot footprint for
	// backends whose estimator implements FootprintReporter; both are empty
	// for backends without packed weights.
	Precision   string `json:"precision,omitempty"`
	WeightBytes int64  `json:"weight_bytes,omitempty"`
}

// List returns every registered localizer ordered by building, floor,
// backend (floor classifiers first within their building).
func (r *Registry) List() []Info {
	m := *r.entries.Load()
	out := make([]Info, 0, len(m))
	for k, e := range m {
		s := e.snap.Load()
		info := Info{
			Key:        k,
			Name:       s.Localizer.Name(),
			Version:    s.Version,
			InputDim:   s.Localizer.InputDim(),
			NumClasses: s.Localizer.NumClasses(),
		}
		if c := e.cand.Load(); c != nil {
			info.CandidateVersion = c.Version
			info.CandidateName = c.Localizer.Name()
		}
		if fr, ok := Unwrap(s.Localizer).(FootprintReporter); ok {
			info.Precision, info.WeightBytes = fr.Footprint()
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key.Less(out[j].Key) })
	return out
}

// Floors returns the sorted floor indices registered for a building/backend
// pair (the floor classifier's ClassifierFloor entry is excluded). The
// serving layer uses it to validate routed floors and to fall back when a
// building has exactly one floor.
func (r *Registry) Floors(building int, backend string) []int {
	m := *r.entries.Load()
	var floors []int
	for k := range m {
		if k.Building == building && k.Backend == backend && k.Floor != ClassifierFloor {
			floors = append(floors, k.Floor)
		}
	}
	sort.Ints(floors)
	return floors
}
