// Package cluster composes node-shaped serving processes (internal/node)
// into a sharded fleet: a shard map assigns {building, floor} keys to named
// nodes, a prober maintains membership/health state from periodic /healthz
// probes, and a Router proxies the /v1/* surface — point lookups to the
// owning shard, fleet-wide views by fan-out-and-merge.
//
// Per-node state stays per-node on purpose: each shard runs its own
// registry, engine, and promotion gate (holdout win streak → SwapIf →
// regret rollback), so a floor's model is judged on that floor's own
// holdout. The cluster layer only decides WHICH node owns a key and
// aggregates the observability surface.
package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"strconv"
	"strings"
)

// ShardKey addresses the unit of sharding: one building floor. Every model
// of that floor (all backends, its trainer, its A/B lane) lives on the
// owning node.
type ShardKey struct {
	Building int `json:"building"`
	Floor    int `json:"floor"`
}

// String renders the canonical "building/floor" form used by shard-map files.
func (k ShardKey) String() string { return fmt.Sprintf("%d/%d", k.Building, k.Floor) }

// ParseShardKey parses the "building/floor" form.
func ParseShardKey(s string) (ShardKey, error) {
	b, f, ok := strings.Cut(s, "/")
	if !ok {
		return ShardKey{}, fmt.Errorf("cluster: shard key %q is not building/floor", s)
	}
	building, err := strconv.Atoi(strings.TrimSpace(b))
	if err != nil {
		return ShardKey{}, fmt.Errorf("cluster: shard key %q: bad building: %w", s, err)
	}
	floor, err := strconv.Atoi(strings.TrimSpace(f))
	if err != nil {
		return ShardKey{}, fmt.Errorf("cluster: shard key %q: bad floor: %w", s, err)
	}
	return ShardKey{Building: building, Floor: floor}, nil
}

// Assigner maps shard keys to the named node that owns them. Both
// implementations (static map, consistent hash) are immutable once built and
// safe for concurrent use.
type Assigner interface {
	// Owner returns the name of the node owning k; false when the map does
	// not cover k (static maps only — a hash ring covers every key).
	Owner(k ShardKey) (string, bool)
	// Nodes returns the name → base-URL table of every member node.
	Nodes() map[string]string
	// Floors enumerates the known floors of a building, sorted. Static maps
	// enumerate their assignments; a hash ring cannot enumerate and returns
	// nil — callers needing floor-less routing there must resolve the floor
	// themselves (see RouterOptions.Resolve).
	Floors(building int) []int
}

// StaticMap is an explicit {building, floor} → node assignment.
type StaticMap struct {
	nodes  map[string]string
	assign map[ShardKey]string
}

// NewStaticMap builds a static shard map. Every assigned node must appear in
// the nodes table.
func NewStaticMap(nodes map[string]string, assign map[ShardKey]string) (*StaticMap, error) {
	if len(nodes) == 0 {
		return nil, errors.New("cluster: static map has no nodes")
	}
	for k, name := range assign {
		if _, ok := nodes[name]; !ok {
			return nil, fmt.Errorf("cluster: shard %s assigned to unknown node %q", k, name)
		}
	}
	return &StaticMap{nodes: copyMap(nodes), assign: copyMap(assign)}, nil
}

func (m *StaticMap) Owner(k ShardKey) (string, bool) {
	name, ok := m.assign[k]
	return name, ok
}

func (m *StaticMap) Nodes() map[string]string { return copyMap(m.nodes) }

func (m *StaticMap) Floors(building int) []int {
	var out []int
	for k := range m.assign {
		if k.Building == building {
			out = append(out, k.Floor)
		}
	}
	sort.Ints(out)
	return out
}

// HashMap assigns keys by consistent hashing over a ring of virtual node
// points, so adding or removing one node only moves ~1/N of the keys. It
// covers every possible key; floor-less requests therefore need an explicit
// floor resolver at the router.
type HashMap struct {
	nodes  map[string]string
	points []uint32
	owner  map[uint32]string
}

// DefaultHashReplicas is the virtual points per node when a shard-map file
// does not specify one; enough that a handful of nodes split key space
// within a few percent of evenly.
const DefaultHashReplicas = 128

// MaxHashReplicas bounds the virtual points per node: the ring hashes and
// stores nodes×replicas points when it is built.
const MaxHashReplicas = 1024

// NewHashMap builds a consistent-hash assigner over the named nodes.
func NewHashMap(nodes map[string]string, replicas int) (*HashMap, error) {
	if len(nodes) == 0 {
		return nil, errors.New("cluster: hash map has no nodes")
	}
	if replicas > MaxHashReplicas {
		return nil, fmt.Errorf("cluster: %d hash replicas per node, above the limit of %d", replicas, MaxHashReplicas)
	}
	if replicas <= 0 {
		replicas = DefaultHashReplicas
	}
	m := &HashMap{nodes: copyMap(nodes), owner: make(map[uint32]string, len(nodes)*replicas)}
	for name := range nodes {
		for i := 0; i < replicas; i++ {
			p := hash32(name + "#" + strconv.Itoa(i))
			// Collisions between virtual points are resolved by name order so
			// every build of the same membership yields the same ring.
			if prev, ok := m.owner[p]; ok && prev <= name {
				continue
			}
			m.owner[p] = name
		}
	}
	m.points = make([]uint32, 0, len(m.owner))
	for p := range m.owner {
		m.points = append(m.points, p)
	}
	sort.Slice(m.points, func(i, j int) bool { return m.points[i] < m.points[j] })
	return m, nil
}

func (m *HashMap) Owner(k ShardKey) (string, bool) {
	h := hash32(k.String())
	i := sort.Search(len(m.points), func(i int) bool { return m.points[i] >= h })
	if i == len(m.points) {
		i = 0 // wrap around the ring
	}
	return m.owner[m.points[i]], true
}

func (m *HashMap) Nodes() map[string]string { return copyMap(m.nodes) }

// Floors cannot enumerate a hash ring's key space.
func (m *HashMap) Floors(int) []int { return nil }

func hash32(s string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(s))
	return h.Sum32()
}

func copyMap[K comparable, V any](m map[K]V) map[K]V {
	out := make(map[K]V, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// File is the JSON shard-map format calloc-serve -shards loads:
//
//	{
//	  "strategy": "static",
//	  "nodes":  {"node-a": "http://10.0.0.1:8080", "node-b": "http://10.0.0.2:8080"},
//	  "assign": {"77/0": "node-a", "77/1": "node-b"}
//	}
//
// or, hashed (no assignment table — every key maps to some node):
//
//	{"strategy": "hash", "nodes": {...}, "replicas": 128}
type File struct {
	// Strategy selects the assigner: "static" (default when an assign table
	// is present) or "hash".
	Strategy string `json:"strategy,omitempty"`
	// Nodes is the membership table: node name → base URL.
	Nodes map[string]string `json:"nodes"`
	// Assign maps "building/floor" keys to node names (static strategy).
	Assign map[string]string `json:"assign,omitempty"`
	// Replicas is the virtual points per node (hash strategy; default
	// DefaultHashReplicas, at most MaxHashReplicas).
	Replicas int `json:"replicas,omitempty"`
}

// Build constructs the Assigner the file describes.
func (f File) Build() (Assigner, error) {
	strategy := f.Strategy
	if strategy == "" {
		if f.Assign != nil {
			strategy = "static"
		} else {
			strategy = "hash"
		}
	}
	switch strategy {
	case "static":
		assign := make(map[ShardKey]string, len(f.Assign))
		spelling := make(map[ShardKey]string, len(f.Assign))
		for ks, name := range f.Assign {
			k, err := ParseShardKey(ks)
			if err != nil {
				return nil, err
			}
			if prev, ok := spelling[k]; ok {
				return nil, fmt.Errorf("cluster: shard keys %q and %q both name %s", prev, ks, k)
			}
			spelling[k] = ks
			assign[k] = name
		}
		return NewStaticMap(f.Nodes, assign)
	case "hash":
		return NewHashMap(f.Nodes, f.Replicas)
	default:
		return nil, fmt.Errorf("cluster: unknown shard-map strategy %q (static, hash)", strategy)
	}
}

// ParseFile decodes a shard-map file from JSON.
func ParseFile(data []byte) (File, error) {
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return File{}, fmt.Errorf("cluster: bad shard map: %w", err)
	}
	return f, nil
}

// LoadFile reads and builds a shard map from a JSON file.
func LoadFile(path string) (Assigner, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f, err := ParseFile(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	a, err := f.Build()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return a, nil
}
