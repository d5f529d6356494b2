package cluster

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseShardKey(t *testing.T) {
	k, err := ParseShardKey("77/3")
	if err != nil {
		t.Fatal(err)
	}
	if k != (ShardKey{Building: 77, Floor: 3}) {
		t.Fatalf("got %+v", k)
	}
	if k.String() != "77/3" {
		t.Fatalf("String() = %q", k.String())
	}
	for _, bad := range []string{"77", "77/", "/3", "a/3", "77/b", ""} {
		if _, err := ParseShardKey(bad); err == nil {
			t.Errorf("ParseShardKey(%q) accepted", bad)
		}
	}
}

func TestStaticMap(t *testing.T) {
	nodes := map[string]string{"a": "http://a", "b": "http://b"}
	assign := map[ShardKey]string{
		{77, 0}: "a",
		{77, 1}: "b",
		{12, 0}: "a",
	}
	m, err := NewStaticMap(nodes, assign)
	if err != nil {
		t.Fatal(err)
	}
	if name, ok := m.Owner(ShardKey{77, 1}); !ok || name != "b" {
		t.Fatalf("Owner(77/1) = %q, %v", name, ok)
	}
	if _, ok := m.Owner(ShardKey{77, 9}); ok {
		t.Fatal("unassigned key reported an owner")
	}
	if got := m.Floors(77); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("Floors(77) = %v", got)
	}
	if got := m.Floors(99); got != nil {
		t.Fatalf("Floors(99) = %v, want nil", got)
	}
	// Mutating the returned node table must not affect the map.
	m.Nodes()["a"] = "mutated"
	if m.Nodes()["a"] != "http://a" {
		t.Fatal("Nodes() exposed internal state")
	}
}

func TestStaticMapRejectsUnknownNode(t *testing.T) {
	_, err := NewStaticMap(map[string]string{"a": "http://a"},
		map[ShardKey]string{{77, 0}: "ghost"})
	if err == nil {
		t.Fatal("assignment to unknown node accepted")
	}
	if _, err := NewStaticMap(nil, nil); err == nil {
		t.Fatal("empty node table accepted")
	}
}

func TestHashMapCoversEveryKeyDeterministically(t *testing.T) {
	nodes := map[string]string{"a": "http://a", "b": "http://b", "c": "http://c"}
	m1, err := NewHashMap(nodes, 0)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := NewHashMap(nodes, 0)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	const keys = 600
	for b := 0; b < 20; b++ {
		for f := 0; f < 30; f++ {
			k := ShardKey{Building: b, Floor: f}
			name, ok := m1.Owner(k)
			if !ok || name == "" {
				t.Fatalf("hash map left %s unowned", k)
			}
			again, _ := m2.Owner(k)
			if again != name {
				t.Fatalf("non-deterministic owner for %s: %q vs %q", k, name, again)
			}
			counts[name]++
		}
	}
	// With 128 virtual points per node the split should be roughly even;
	// accept anything better than a 3:1 skew so the test is not flaky on the
	// exact hash layout.
	for name, n := range counts {
		if n < keys/9 {
			t.Errorf("node %q owns only %d/%d keys: %v", name, n, keys, counts)
		}
	}
	if m1.Floors(0) != nil {
		t.Fatal("hash map claims to enumerate floors")
	}
}

func TestFileBuildStatic(t *testing.T) {
	f, err := ParseFile([]byte(`{
		"nodes":  {"node-a": "http://10.0.0.1:8080", "node-b": "http://10.0.0.2:8080"},
		"assign": {"77/0": "node-a", "77/1": "node-b"}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	a, err := f.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := a.(*StaticMap); !ok {
		t.Fatalf("assign table should default to static, got %T", a)
	}
	if name, _ := a.Owner(ShardKey{77, 1}); name != "node-b" {
		t.Fatalf("Owner(77/1) = %q", name)
	}
}

func TestFileBuildHash(t *testing.T) {
	f, err := ParseFile([]byte(`{"nodes": {"a": "http://a", "b": "http://b"}}`))
	if err != nil {
		t.Fatal(err)
	}
	a, err := f.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := a.(*HashMap); !ok {
		t.Fatalf("no assign table should default to hash, got %T", a)
	}
	f.Replicas = MaxHashReplicas
	if _, err := f.Build(); err != nil {
		t.Fatalf("MaxHashReplicas rejected: %v", err)
	}
}

func TestFileBuildErrors(t *testing.T) {
	if _, err := ParseFile([]byte(`{not json`)); err == nil {
		t.Fatal("bad JSON accepted")
	}
	f := File{Strategy: "rendezvous", Nodes: map[string]string{"a": "http://a"}}
	if _, err := f.Build(); err == nil {
		t.Fatal("unknown strategy accepted")
	}
	f = File{Nodes: map[string]string{"a": "http://a"}, Assign: map[string]string{"oops": "a"}}
	if _, err := f.Build(); err == nil {
		t.Fatal("bad shard key in assign table accepted")
	}
	// The bound is checked before the ring is built, so this allocates
	// nothing.
	f = File{Strategy: "hash", Nodes: map[string]string{"a": "http://a"}, Replicas: 100_000_000}
	if _, err := f.Build(); err == nil {
		t.Fatal("10^8 replicas per node accepted")
	}
}

// Two spellings of one key would otherwise leave its owner to map
// iteration order.
func TestFileBuildRejectsDuplicateKey(t *testing.T) {
	f, err := ParseFile([]byte(`{"nodes": {"a": "http://a", "b": "http://b"}, "assign": {"77/0": "a", " 77/00": "b"}}`))
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.Build()
	if err == nil {
		t.Fatal("two spellings of 77/0 accepted")
	}
	for _, ks := range []string{`"77/0"`, `" 77/00"`} {
		if !strings.Contains(err.Error(), ks) {
			t.Errorf("error %q does not name %s", err, ks)
		}
	}
}

// FuzzShardMapFile builds whatever shard-map file parses, and checks that
// the assigner it builds answers for every key the file names.
func FuzzShardMapFile(f *testing.F) {
	f.Add([]byte(`{"nodes": {"node-a": "http://10.0.0.1:8080", "node-b": "http://10.0.0.2:8080"}, "assign": {"77/0": "node-a", "77/1": "node-b"}}`))
	f.Add([]byte(`{"strategy": "hash", "nodes": {"a": "http://a", "b": "http://b"}, "replicas": 3}`))
	f.Add([]byte(`{"nodes": {"a": "http://a", "b": "http://b"}, "assign": {"77/0": "a", " 77/00": "b"}}`))
	f.Add([]byte(`{"strategy": "hash", "nodes": {"a": "http://a"}, "replicas": 100000000}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		file, err := ParseFile(data)
		if err != nil {
			return
		}
		a, err := file.Build()
		if err != nil {
			return
		}
		nodes := a.Nodes()
		if len(nodes) == 0 {
			t.Fatal("built an assigner with no nodes")
		}
		if _, ok := a.(*HashMap); ok {
			name, _ := a.Owner(ShardKey{77, 0})
			if _, ok := nodes[name]; !ok {
				t.Fatalf("hash ring gives 77/0 to %q, not a member", name)
			}
			return
		}
		for ks, name := range file.Assign {
			k, _ := ParseShardKey(ks)
			if got, ok := a.Owner(k); !ok || got != name {
				t.Fatalf("%q is assigned to %q, Owner(%s) = %q, %v", ks, name, k, got, ok)
			}
			if _, ok := nodes[name]; !ok {
				t.Fatalf("%q is owned by %q, not a member", ks, name)
			}
		}
	})
}
