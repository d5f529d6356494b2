package node_test

import (
	"math"
	"strings"
	"testing"

	"calloc/internal/localizer"
	"calloc/internal/mat"
	"calloc/internal/node"
	"calloc/internal/serve"
	"calloc/internal/train"
)

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  node.Config
		n    int
		want string // substring of the error; "" means valid
	}{
		{"no datasets", node.Config{}, 0, "no datasets"},
		{"unknown backend", node.Config{Backends: []string{"calloc", "svm"}}, 2, `"svm"`},
		{"weight count", node.Config{WeightBlobs: [][]byte{{1}}}, 2, "weight blobs"},
		{"floor count", node.Config{Floors: []int{0, 1, 2}}, 2, "floor indices"},
		{"negative floor", node.Config{Floors: []int{0, -1}}, 2, "negative floor"},
		{"duplicate floor", node.Config{Floors: []int{3, 3}}, 2, "duplicate floor"},
		{"unknown precision", node.Config{Precision: "fp16"}, 2, `"fp16"`},
		// Each trainer row is a setting that used to disable part of the
		// promotion gate without saying so.
		{"NaN min delta", node.Config{Trainer: train.Policy{MinDelta: math.NaN()}}, 2, "MinDelta"},
		{"NaN regret delta", node.Config{Trainer: train.Policy{RegretDelta: math.NaN()}}, 2, "RegretDelta"},
		{"NaN learning rate", node.Config{Trainer: train.Policy{LearningRate: math.NaN()}}, 2, "LearningRate"},
		{"valid defaults", node.Config{}, 2, ""},
		{"valid fleet shard", node.Config{Backends: []string{"calloc"}, Floors: []int{2, 3}}, 2, ""},
		{"valid float32 precision", node.Config{Precision: "float32"}, 2, ""},
		{"valid int8 precision", node.Config{Precision: " int8 "}, 2, ""},
		{"valid empty precision defaults float64", node.Config{Precision: ""}, 2, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.cfg.Validate(tc.n)
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

// A fleet shard serving a floor subset registers its models under GLOBAL
// floor indices, so the registry, trainer map, and HTTP surface agree with
// the shard map about what "floor 1" means.
func TestNodeGlobalFloorIndices(t *testing.T) {
	datasets := testFloors(t)[1:] // one dataset, owned as global floor 1
	n, err := node.New(datasets, node.Config{
		Backends:    []string{"calloc"},
		Floors:      []int{1},
		WeightBlobs: [][]byte{untrainedWeights(t, datasets[0])},
		Engine:      serve.Options{MaxBatch: 4, Workers: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	if got := n.Floors(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Floors() = %v, want [1]", got)
	}
	key := localizer.Key{Building: n.Building(), Floor: 1, Backend: "calloc"}
	if _, ok := n.Registry().Get(key); !ok {
		t.Fatalf("%s not registered; have %v", key, n.Registry().List())
	}
	if _, ok := n.Trainer(1); !ok {
		t.Fatal("no trainer under global floor 1")
	}
	if _, ok := n.Trainer(0); ok {
		t.Fatal("trainer registered under positional floor 0")
	}
}

// The fleet-wide floor classifier speaks global floor indices: fitted on
// positional classes, its predictions are remapped through Config-style
// floors so a router can resolve shard owners directly.
func TestFitFloorClassifierRemapsGlobalFloors(t *testing.T) {
	datasets := testFloors(t)
	fc, err := node.FitFloorClassifier(datasets, []int{4, 7})
	if err != nil {
		t.Fatal(err)
	}
	if fc.NumClasses() != 8 {
		t.Fatalf("NumClasses() = %d, want 8 (max global floor + 1)", fc.NumClasses())
	}
	counts := map[int]int{}
	for di, ds := range datasets {
		want := []int{4, 7}[di]
		for _, s := range ds.Test["OP3"] {
			row := append([]float64(nil), s.RSS...)
			got := fc.PredictInto(nil, mat.FromSlice(1, len(row), row))[0]
			if got != 4 && got != 7 {
				t.Fatalf("prediction %d outside the global floor set {4, 7}", got)
			}
			if got == want {
				counts[want]++
			}
		}
	}
	// The classifier itself can misroute a few queries; the point here is the
	// remap, so just require each global floor is actually reachable.
	if counts[4] == 0 || counts[7] == 0 {
		t.Fatalf("remapped classifier never predicted a correct global floor: %v", counts)
	}

	if _, err := node.FitFloorClassifier(datasets, []int{1}); err == nil {
		t.Fatal("mismatched floors length accepted")
	}
}
