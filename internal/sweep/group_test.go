package sweep

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"photoloop/internal/fidelity"
)

// TestGroupedPointsMatchSinglePoints pins the point groups: a Run, which
// searches each layer once for all three objectives of a (variant,
// workload), must equal the same points evaluated one index at a time
// and through index sets that cut groups apart — every point byte for
// byte, ledger included, with the same cache hit and miss totals.
func TestGroupedPointsMatchSinglePoints(t *testing.T) {
	sp := Spec{
		Name: "grouped",
		Base: Base{Albireo: &AlbireoBase{}},
		Axes: []Axis{{Param: "or_lanes", Values: []any{1, 3}}},
		Workloads: []Workload{
			{Inline: tinyNet()},
			{Network: "alexnet", Fused: true},
		},
		Objectives:    []string{"energy", "delay", "edp"},
		Budget:        60,
		Seed:          2,
		SearchWorkers: 2,
		IncludeLayers: true,
		Fidelity:      &fidelity.Spec{},
	}
	res, err := Run(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := len(res.Points)

	check := func(label string, sets [][]int64) {
		t.Helper()
		ev, err := NewEvaluator(sp, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got := make([]Point, n)
		for _, idx := range sets {
			points, err := ev.EvalPoints(idx, Options{})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			for k, i := range idx {
				got[i] = points[k]
			}
		}
		for i := range got {
			if !reflect.DeepEqual(got[i].Results, res.Points[i].Results) {
				t.Fatalf("%s: point %d ledger differs", label, i)
			}
		}
		gotJSON, _ := json.Marshal(got)
		wantJSON, _ := json.Marshal(res.Points)
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("%s: points differ:\n got %s\nwant %s", label, gotJSON, wantJSON)
		}
		if hits, misses := ev.CacheStats(); hits != res.CacheHits || misses != res.CacheMisses {
			t.Fatalf("%s: cache %d hits %d misses, Run %d/%d", label, hits, misses, res.CacheHits, res.CacheMisses)
		}
	}

	singles := make([][]int64, n)
	for i := range singles {
		singles[i] = []int64{int64(i)}
	}
	check("single points", singles)
	// Groups of three: {1, 2} | {3, 4} | {7} cut three of them, and the
	// rest in reverse order cut the others.
	cut := []int64{1, 2, 3, 4, 7}
	var rest []int64
	for i := n - 1; i >= 0; i-- {
		if i != 1 && i != 2 && i != 3 && i != 4 && i != 7 {
			rest = append(rest, int64(i))
		}
	}
	check("cut groups", [][]int64{cut, rest})
}
