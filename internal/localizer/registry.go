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

// entry is the per-key slot; the snapshot pointer is the hot-swap point.
// prev retains the snapshot a SwapIf displaced, so a regretted promotion can
// roll back.
type entry struct {
	snap atomic.Pointer[Snapshot]
	prev atomic.Pointer[Snapshot]
}

// Registry maps keys to atomically versioned localizer snapshots.
//
// Reads (Get, List) are lock-free: two atomic pointer loads — the
// copy-on-write key map, then the key's current snapshot. Writes (Register,
// Swap, SwapIf, Rollback) serialise on an internal mutex; Register clones the
// key map, the others only replace the key's snapshot pointer, so a version
// push under load never copies the map and never blocks readers.
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

// ErrVersionConflict is returned by SwapIf when the key's live version is no
// longer the one the caller expected — someone else published a version
// while the caller was deciding.
var ErrVersionConflict = errors.New("localizer: version changed since it was observed")

// ErrNoPrevious is returned by Rollback when no displaced snapshot is
// retained.
var ErrNoPrevious = errors.New("localizer: no previous snapshot retained")

// Swap atomically replaces key's localizer with loc and returns the new
// version (previous + 1). The key must already be registered and loc must
// preserve the input width and label-space size — lanes and clients sized
// against the old version stay valid across the swap. In-flight batches
// that loaded the previous snapshot finish on it; new batches observe the
// new version immediately.
//
// A direct swap breaks the promotion lineage: rolling "back" past it would
// stomp the version just pushed, so any retained previous snapshot is
// dropped.
func (r *Registry) Swap(key Key, loc Localizer) (uint64, error) {
	return r.swap(key, loc, false, 0)
}

// SwapIf is a promotion: Swap conditioned on the live version still being
// expect (ErrVersionConflict otherwise), so a gate that validated loc
// against one incumbent never silently discards a version pushed since. The
// displaced snapshot is retained for Rollback.
func (r *Registry) SwapIf(key Key, loc Localizer, expect uint64) (uint64, error) {
	return r.swap(key, loc, true, expect)
}

func (r *Registry) swap(key Key, loc Localizer, conditional bool, expect uint64) (uint64, error) {
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
	if conditional && cur.Version != expect {
		return 0, fmt.Errorf("%w: %s at version %d, expected %d",
			ErrVersionConflict, key, cur.Version, expect)
	}
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
	if conditional {
		e.prev.Store(cur)
	} else {
		e.prev.Store(nil)
	}
	return next.Version, nil
}

// Rollback restores the snapshot the last SwapIf displaced, installing it as
// a NEW live version (versions only ever advance, so clients observe the
// rollback exactly like any other hot-swap). The retained previous is
// consumed. Fails with ErrNoPrevious when no previous snapshot is retained
// (no SwapIf since the last Rollback or Swap).
func (r *Registry) Rollback(key Key) (uint64, error) {
	r.writeMu.Lock()
	defer r.writeMu.Unlock()
	e, ok := (*r.entries.Load())[key]
	if !ok {
		return 0, fmt.Errorf("localizer: %s not registered", key)
	}
	p := e.prev.Load()
	if p == nil {
		return 0, fmt.Errorf("%w: %s", ErrNoPrevious, key)
	}
	cur := e.snap.Load()
	next := &Snapshot{Localizer: p.Localizer, Version: cur.Version + 1}
	e.snap.Store(next)
	e.prev.Store(nil)
	return next.Version, nil
}

// Previous returns the snapshot the last SwapIf displaced, if it is still
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

// Len returns the number of registered keys.
func (r *Registry) Len() int { return len(*r.entries.Load()) }

// Info describes one registered localizer for listings (/v1/models).
type Info struct {
	Key        Key    `json:"key"`
	Name       string `json:"name"`
	Version    uint64 `json:"version"`
	InputDim   int    `json:"input_dim"`
	NumClasses int    `json:"classes"`
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
