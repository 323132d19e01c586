package sweep

import (
	"encoding/json"
	"maps"
	"slices"
	"sync"
	"testing"

	"photoloop/internal/mapper"
	"photoloop/internal/spec"
	"photoloop/internal/workload"
)

// keyRecorder is a mapper.Persister that never hits and records the key
// of every search the cache writes through to it.
type keyRecorder struct {
	mu   sync.Mutex
	keys map[mapper.Key]bool
}

func (r *keyRecorder) Load(mapper.Key) (*mapper.Best, bool) { return nil, false }

func (r *keyRecorder) Store(k mapper.Key, _ *mapper.Best) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.keys[k] = true
	return nil
}

// pointKeys derives each point's search keys through ColdPoints, with a
// has that records every key it is asked about and holds them all.
func pointKeys(t *testing.T, ev *Evaluator, n int) []map[mapper.Key]bool {
	t.Helper()
	out := make([]map[mapper.Key]bool, n)
	for i := range out {
		out[i] = map[mapper.Key]bool{}
		if cold := ev.ColdPoints([]int64{int64(i)}, func(k mapper.Key) bool {
			out[i][k] = true
			return true
		}); len(cold) != 0 {
			t.Fatalf("point %d reads cold although every key is held", i)
		}
	}
	return out
}

// TestEvaluatorKeysMatchSearches pins ColdPoints' key walk to the
// searches a Run actually stores: for an Albireo sweep, a fused workload
// (three fused positions, so three architectures), two objectives and a
// non-Albireo base (no canonical seeds), the union of the keys derived
// per point is exactly the set of keys the run wrote through its
// persister. A grid whose keys are all held has no cold point; one
// missing key makes cold exactly the points that search it; an empty
// store leaves every point cold. A fixed-mapping point derives no key.
func TestEvaluatorKeysMatchSearches(t *testing.T) {
	// fusedNet repeats one conv shape at the first and two middle
	// positions: the first and middle copies run on different fused
	// architectures, so they are different searches.
	fusedNet := &workload.Network{Name: "fused3", Layers: []workload.Layer{
		workload.NewConv("c1", 1, 6, 8, 8, 8, 3, 3, 1, 1),
		workload.NewConv("c2", 1, 6, 8, 8, 8, 3, 3, 1, 1),
		workload.NewConv("c3", 1, 6, 8, 8, 8, 3, 3, 1, 1),
		workload.NewFC("fc", 1, 12, 32),
	}}
	plain := Spec{
		Name:          "keys",
		Base:          Base{Albireo: &AlbireoBase{}},
		Axes:          []Axis{{Param: "output_lanes", Values: []any{3, 9}}},
		Workloads:     []Workload{{Inline: tinyNet()}},
		Budget:        40,
		Seed:          1,
		SearchWorkers: 1,
	}
	fused := plain
	fused.Workloads = []Workload{{Inline: fusedNet, Fused: true}}
	twoObjectives := plain
	twoObjectives.Objectives = []string{"energy", "delay"}
	nonAlbireo := plain
	nonAlbireo.Base, nonAlbireo.Axes = templateBase(t), nil

	for _, tc := range []struct {
		name string
		sp   Spec
		keys int // distinct searches, pinned so an empty run cannot pass
	}{
		{"albireo", plain, 4}, // 2 variants x 2 layers
		{"fused", fused, 6},   // 2 variants x (first, middle, last)
		{"two-objectives", twoObjectives, 8},
		{"non-albireo", nonAlbireo, 2},
	} {
		sp := tc.sp
		t.Run(tc.name, func(t *testing.T) {
			rec := &keyRecorder{keys: map[mapper.Key]bool{}}
			cache := mapper.NewCache()
			cache.SetPersister(rec)
			res, err := Run(sp, Options{Cache: cache})
			if err != nil {
				t.Fatal(err)
			}
			ev, err := NewEvaluator(sp, Options{})
			if err != nil {
				t.Fatal(err)
			}
			n := len(res.Points)
			idx := make([]int64, n)
			for i := range idx {
				idx[i] = int64(i)
			}
			perPoint := pointKeys(t, ev, n)
			derived := map[mapper.Key]bool{}
			for _, keys := range perPoint {
				maps.Copy(derived, keys)
			}
			if len(rec.keys) != tc.keys {
				t.Fatalf("the run stored %d searches, want %d", len(rec.keys), tc.keys)
			}
			if !maps.Equal(derived, rec.keys) {
				t.Fatalf("derived %d keys, the run stored %d; the sets differ", len(derived), len(rec.keys))
			}
			if cold := ev.ColdPoints(idx, func(k mapper.Key) bool { return rec.keys[k] }); len(cold) != 0 {
				t.Errorf("fully stored grid has cold points %v", cold)
			}
			if cold := ev.ColdPoints(idx, func(mapper.Key) bool { return false }); !slices.Equal(cold, idx) {
				t.Errorf("empty store: cold points %v, want all of %v", cold, idx)
			}
			for k := range rec.keys {
				var want []int64
				for i, keys := range perPoint {
					if keys[k] {
						want = append(want, int64(i))
					}
				}
				got := ev.ColdPoints(idx, func(h mapper.Key) bool { return h != k && rec.keys[h] })
				if !slices.Equal(got, want) {
					t.Errorf("store missing %+v: cold points %v, want %v", k, got, want)
				}
			}
		})
	}

	t.Run("fixed-mapping", func(t *testing.T) {
		var tmpl spec.ArchSpec
		if err := json.Unmarshal([]byte(spec.Template), &tmpl); err != nil {
			t.Fatal(err)
		}
		fixed := &spec.MappingSpec{Levels: []spec.MappingLevelSpec{
			{Temporal: map[string]int{"N": 2, "K": 6, "C": 16, "P": 8, "Q": 8, "R": 3, "S": 3}},
			{Temporal: map[string]int{"K": 2, "C": 2}, Perm: []string{"K", "C", "N", "P", "Q", "R", "S"}},
			{},
			{},
			{},
		}}
		rec := &keyRecorder{keys: map[mapper.Key]bool{}}
		cache := mapper.NewCache()
		cache.SetPersister(rec)
		if _, err := Eval(&EvalRequest{Arch: &tmpl, Inline: tinyNet(), Mapping: fixed}, cache); err != nil {
			t.Fatal(err)
		}
		if len(rec.keys) != 0 {
			t.Fatalf("a fixed-mapping eval stored %d searches", len(rec.keys))
		}
		ev, err := NewEvaluator(Spec{Base: Base{Arch: &tmpl}, Workloads: []Workload{{Inline: tinyNet()}}}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		job := ev.job(0, ev.base, 0, 0)
		job.mapping = fixed
		if !ev.served(&job, func(k mapper.Key) bool {
			t.Errorf("fixed-mapping point derived key %+v", k)
			return false
		}) {
			t.Error("fixed-mapping point reads cold")
		}
	})
}
