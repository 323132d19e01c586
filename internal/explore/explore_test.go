package explore

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"photoloop/internal/mapper"
	"photoloop/internal/sweep"
	"photoloop/internal/workload"
)

// smallSpec is the deterministic 18-point fixture most tests share:
// pinned seed and search workers, tiny mapper budget, the Fig. 5 reuse
// levers on the stock Albireo preset.
func smallSpec() Spec {
	return Spec{
		Name: "test-explore",
		Base: sweep.Base{Preset: "albireo"},
		Axes: []Axis{
			{Param: "or_lanes", Values: []any{1, 3, 5}},
			{Param: "output_lanes", Values: []any{3, 9, 15}},
			{Param: "weight_reuse", Values: []any{false, true}},
		},
		Workload:      sweep.Workload{Network: "alexnet"},
		Objectives:    []string{"energy", "area"},
		MapperBudget:  60,
		Seed:          1,
		SearchWorkers: 1,
	}
}

// tinyLayer builds a one-layer inline workload for tests that evaluate
// many candidates.
func tinyLayer() *workload.Network {
	l := workload.NewConv("tiny", 1, 16, 16, 8, 8, 3, 3, 1, 1)
	return &workload.Network{Name: "tiny", Layers: []workload.Layer{l}}
}

// testMetric is the test's own objective extraction — deliberately
// independent of the package's metric() so the equivalence below checks
// the real thing.
func testMetric(name string, p *sweep.Point) float64 {
	switch name {
	case "energy":
		return p.TotalPJ
	case "pj_per_mac":
		return p.PJPerMAC
	case "delay":
		return p.Cycles
	case "area":
		return p.AreaUM2
	case "edp":
		return p.TotalPJ * p.Cycles
	}
	panic("unknown objective " + name)
}

// TestGridFrontierMatchesBruteForceSweep is the exhaustive strategy's
// equivalence anchor: the frontier must be bit-identical to running the
// equivalent sweep.Run grid directly and applying a brute-force O(n²)
// all-pairs dominance filter.
func TestGridFrontierMatchesBruteForceSweep(t *testing.T) {
	sp := smallSpec()
	f, err := Run(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if f.Strategy != StrategyGrid {
		t.Fatalf("strategy = %q, want grid", f.Strategy)
	}

	// The equivalent sweep, built by hand.
	res, err := sweep.Run(sweep.Spec{
		Name: sp.Name,
		Base: sp.Base,
		Axes: []sweep.Axis{
			{Param: "or_lanes", Values: []any{1, 3, 5}},
			{Param: "output_lanes", Values: []any{3, 9, 15}},
			{Param: "weight_reuse", Values: []any{false, true}},
		},
		Workloads:     []sweep.Workload{sp.Workload},
		Objectives:    []string{"energy"},
		Budget:        sp.MapperBudget,
		Seed:          sp.Seed,
		SearchWorkers: sp.SearchWorkers,
	}, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if f.Evals != len(res.Points) || int(f.SpaceSize) != len(res.Points) {
		t.Fatalf("evals %d / space %d, want %d", f.Evals, f.SpaceSize, len(res.Points))
	}

	// Brute force: all-pairs dominance over the sweep's points.
	objs := make([][]float64, len(res.Points))
	for i := range res.Points {
		objs[i] = []float64{testMetric("energy", &res.Points[i]), testMetric("area", &res.Points[i])}
	}
	domBy := func(a, b []float64) bool { // a dominates b
		return a[0] <= b[0] && a[1] <= b[1] && (a[0] < b[0] || a[1] < b[1])
	}
	var want []int
	for i := range res.Points {
		dominated := false
		for j := range res.Points {
			if j != i && domBy(objs[j], objs[i]) {
				dominated = true
				break
			}
		}
		if !dominated {
			want = append(want, i)
		}
	}
	if len(f.Points) != len(want) {
		t.Fatalf("frontier has %d points, brute force %d", len(f.Points), len(want))
	}
	if f.Dominated != len(res.Points)-len(want) {
		t.Errorf("dominated = %d, want %d", f.Dominated, len(res.Points)-len(want))
	}

	// Every frontier point must be bit-identical to the sweep's point.
	byIndex := map[int64]*FrontierPoint{}
	for i := range f.Points {
		byIndex[f.Points[i].Lattice] = &f.Points[i]
	}
	for _, wi := range want {
		sp := &res.Points[wi]
		fp, ok := byIndex[int64(sp.Index)]
		if !ok {
			t.Fatalf("brute-force frontier point %d (%s) missing from explore frontier", sp.Index, sp.Variant)
		}
		if fp.TotalPJ != sp.TotalPJ || fp.Cycles != sp.Cycles || fp.PJPerMAC != sp.PJPerMAC ||
			fp.AreaUM2 != sp.AreaUM2 || fp.Utilization != sp.Utilization ||
			fp.MACsPerCycle != sp.MACsPerCycle || fp.Evaluations != sp.Evaluations {
			t.Errorf("point %d: metrics differ from sweep: %+v vs %+v", sp.Index, fp.Point, *sp)
		}
		if fp.Variant != sp.Variant || !reflect.DeepEqual(fp.Params, sp.Params) {
			t.Errorf("point %d: provenance differs: %q %v vs %q %v",
				sp.Index, fp.Variant, fp.Params, sp.Variant, sp.Params)
		}
		if fp.Objectives[0] != objs[wi][0] || fp.Objectives[1] != objs[wi][1] {
			t.Errorf("point %d: objective vector %v, want %v", sp.Index, fp.Objectives, objs[wi])
		}
	}
}

// TestAutoStrategySelection pins the budget rule: grid when the space
// fits the budget, adaptive otherwise.
func TestAutoStrategySelection(t *testing.T) {
	sp := smallSpec()
	sp.Budget = 18
	f, err := Run(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if f.Strategy != StrategyGrid {
		t.Errorf("auto with budget >= space chose %q, want grid", f.Strategy)
	}
	sp = smallSpec()
	sp.Budget = 7
	f, err = Run(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if f.Strategy != StrategyAdaptive {
		t.Errorf("auto with budget < space chose %q, want adaptive", f.Strategy)
	}
	if f.Evals != 7 {
		t.Errorf("evals = %d, want the budget (7)", f.Evals)
	}
}

// bigSpec spans >10^6 lattice points on a one-layer workload — the
// adaptive strategy's scale fixture.
func bigSpec() Spec {
	return Spec{
		Name: "test-big",
		Base: sweep.Base{Albireo: &sweep.AlbireoBase{}},
		Axes: []Axis{
			{Param: "or_lanes", Min: float(1), Max: float(32)},
			{Param: "output_lanes", Min: float(1), Max: float(64)},
			{Param: "clusters", Min: float(1), Max: float(32)},
			{Param: "pixel_lanes", Min: float(4), Max: float(64), Step: 4},
		},
		Workload:      sweep.Workload{Inline: tinyLayer()},
		Objectives:    []string{"pj_per_mac", "area"},
		Budget:        24,
		MapperBudget:  40,
		Seed:          7,
		SearchWorkers: 1,
	}
}

// TestAdaptiveCoversHugeSpaceWithinBudget is the scale anchor: a
// million-point lattice explored within a fixed evaluation budget, with
// evals, cache traffic and dominance accounting reported.
func TestAdaptiveCoversHugeSpaceWithinBudget(t *testing.T) {
	sp := bigSpec()
	f, err := Run(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if f.SpaceSize <= 1_000_000 {
		t.Fatalf("space = %d, fixture must exceed 10^6", f.SpaceSize)
	}
	if f.Strategy != StrategyAdaptive {
		t.Fatalf("strategy = %q", f.Strategy)
	}
	if f.Evals != sp.Budget {
		t.Errorf("evals = %d, want the budget %d", f.Evals, sp.Budget)
	}
	if len(f.Points) == 0 {
		t.Fatal("empty frontier")
	}
	if len(f.Points)+f.Dominated+f.Infeasible != f.Evals {
		t.Errorf("accounting: %d frontier + %d dominated + %d infeasible != %d evals",
			len(f.Points), f.Dominated, f.Infeasible, f.Evals)
	}
	if f.CacheMisses == 0 {
		t.Error("cache misses = 0; searches did not go through the shared cache")
	}
	for i := range f.Points {
		if len(f.Points[i].Params) != len(sp.Axes) {
			t.Errorf("point %d: provenance has %d params, want %d", i, len(f.Points[i].Params), len(sp.Axes))
		}
	}
}

// TestAdaptiveDeterministicAcrossWorkers pins the concurrency contract:
// for a fixed (Spec, Seed), the frontier — points, order, accounting —
// is identical at 1, 2 and 8 evaluation workers.
func TestAdaptiveDeterministicAcrossWorkers(t *testing.T) {
	var base *Frontier
	for _, workers := range []int{1, 2, 8} {
		f, err := Run(bigSpec(), Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = f
			continue
		}
		if !reflect.DeepEqual(f, base) {
			t.Errorf("workers=%d: frontier differs from workers=1:\n%+v\nvs\n%+v", workers, f, base)
		}
	}
}

// TestExploreSharedCacheReuse pins the cache contract: re-running a
// search against a warmed shared cache recomputes nothing and returns the
// identical frontier.
func TestExploreSharedCacheReuse(t *testing.T) {
	cache := mapper.NewCache()
	first, err := Run(bigSpec(), Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheMisses == 0 {
		t.Fatal("first run missed nothing; fixture broken")
	}
	second, err := Run(bigSpec(), Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if second.CacheMisses != 0 {
		t.Errorf("second run recomputed %d searches despite the warmed cache", second.CacheMisses)
	}
	if !reflect.DeepEqual(first.Points, second.Points) {
		t.Error("cached frontier differs from computed frontier")
	}
}

// TestAxisResolve covers the two axis forms and their failure modes.
func TestAxisResolve(t *testing.T) {
	ints, err := (&Axis{Param: "clusters", Min: float(2), Max: float(8), Step: 2}).resolve()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ints, []any{2, 4, 6, 8}) {
		t.Errorf("integral range = %v", ints)
	}
	floats, err := (&Axis{Param: "clock_ghz", Min: float(0.5), Max: float(1.5), Step: 0.5}).resolve()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(floats, []any{0.5, 1.0, 1.5}) {
		t.Errorf("float range = %v", floats)
	}
	values, err := (&Axis{Param: "or_lanes", Values: []any{1, 3}}).resolve()
	if err != nil || !reflect.DeepEqual(values, []any{1, 3}) {
		t.Errorf("values form = %v, %v", values, err)
	}
	for name, ax := range map[string]Axis{
		"both forms":  {Param: "x", Values: []any{1}, Min: float(0), Max: float(1)},
		"missing max": {Param: "x", Min: float(0)},
		"no param":    {},
		"max < min":   {Param: "x", Min: float(2), Max: float(1)},
		"neg step":    {Param: "x", Min: float(0), Max: float(1), Step: -1},
		"over cap":    {Param: "x", Min: float(0), Max: float(1e6)},
		// Must error, not overflow the int conversion and panic in make.
		"huge range": {Param: "x", Min: float(0), Max: float(1e300)},
		"inf bound":  {Param: "x", Min: float(0), Max: float(math.Inf(1))},
		"nan bound":  {Param: "x", Min: float(math.NaN()), Max: float(1)},
		"tiny step":  {Param: "x", Min: float(0), Max: float(1), Step: 5e-324},
	} {
		if _, err := ax.resolve(); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

// TestSpecValidation covers spec-level failure modes, including axis
// params the sweep engine rejects (surfaced before any evaluation).
func TestSpecValidation(t *testing.T) {
	run := func(mutate func(*Spec)) error {
		sp := smallSpec()
		sp.Budget = 4 // adaptive, so bad axis params hit the pre-validation
		mutate(&sp)
		_, err := Run(sp, Options{})
		return err
	}
	for name, mutate := range map[string]func(*Spec){
		"no axes":              func(sp *Spec) { sp.Axes = nil },
		"unknown objective":    func(sp *Spec) { sp.Objectives = []string{"throughput"} },
		"duplicate objective":  func(sp *Spec) { sp.Objectives = []string{"energy", "total_pj"} },
		"bad mapper objective": func(sp *Spec) { sp.MapperObjective = "speed" },
		"unknown axis param":   func(sp *Spec) { sp.Axes[0].Param = "warp_cores" },
		"no workload":          func(sp *Spec) { sp.Workload = sweep.Workload{} },
	} {
		if err := run(mutate); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

// TestContextCancellation checks a canceled context stops both
// strategies with an error, and that the documented partial frontier
// (possibly empty, never nil) comes back alongside it.
func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sp := bigSpec()
	f, err := Run(sp, Options{Context: ctx})
	if err == nil {
		t.Fatal("canceled adaptive run returned no error")
	}
	if f == nil {
		t.Fatal("canceled adaptive run returned a nil frontier")
	}
	f, err = Run(smallSpec(), Options{Context: ctx})
	if err == nil {
		t.Fatal("canceled grid run returned no error")
	}
	if f == nil {
		t.Fatal("canceled grid run returned a nil frontier")
	}
	if f.Infeasible == 0 || len(f.Points) != 0 {
		t.Errorf("canceled grid frontier: %d infeasible, %d points", f.Infeasible, len(f.Points))
	}
}

// TestFrontierMarkdownGolden pins the rendered frontier for the small
// seeded fixture byte-for-byte. Regenerate with
// UPDATE_DOCS=1 go test ./internal/explore -run TestFrontierMarkdownGolden
func TestFrontierMarkdownGolden(t *testing.T) {
	f, err := Run(smallSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.WriteMarkdown(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "frontier_golden.md")
	if os.Getenv("UPDATE_DOCS") != "" {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("golden updated")
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("frontier markdown drifted from golden (UPDATE_DOCS=1 to regenerate):\n--- got ---\n%s--- want ---\n%s", buf.String(), want)
	}
}

// TestFrontierCSVAndJSON smoke the remaining writers: parseable output,
// one row per frontier point.
func TestFrontierCSVAndJSON(t *testing.T) {
	f, err := Run(smallSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var csvBuf bytes.Buffer
	if err := f.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Count(csvBuf.Bytes(), []byte("\n"))
	if lines != len(f.Points)+1 {
		t.Errorf("CSV has %d lines, want %d", lines, len(f.Points)+1)
	}
	var jsonBuf bytes.Buffer
	if err := f.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	var round Frontier
	if err := json.Unmarshal(jsonBuf.Bytes(), &round); err != nil {
		t.Fatal(err)
	}
	if len(round.Points) != len(f.Points) || round.Strategy != f.Strategy {
		t.Errorf("JSON round trip lost points: %d vs %d", len(round.Points), len(f.Points))
	}
}

// TestExploreCallbacksContract pins the hooks both strategies drive:
// OnPoint streams every evaluated point exactly once; point indices count
// evaluation order (0..Evals-1, the lattice order under the grid
// strategy); Progress climbs strictly to (Evals, planned total); and
// PreEvaluate sees every evaluated lattice index exactly once — the whole
// lattice in one call for the grid, one call per generation for the
// adaptive search.
func TestExploreCallbacksContract(t *testing.T) {
	for _, tc := range []struct {
		name    string
		sp      Spec
		planned int // Progress's total
		calls   int // PreEvaluate calls
	}{
		{"grid", smallSpec(), 18, 1},
		{"adaptive", bigSpec(), bigSpec().Budget, (bigSpec().Budget + surrogateGenerationSize - 1) / surrogateGenerationSize},
	} {
		t.Run(tc.name, func(t *testing.T) {
			streamed := map[int]string{} // Point.Index -> variant label
			var progress [][2]int
			var offered [][]int64
			f, err := Run(tc.sp, Options{
				OnPoint: func(p *sweep.Point) {
					if _, dup := streamed[p.Index]; dup {
						t.Errorf("point index %d streamed twice", p.Index)
					}
					streamed[p.Index] = p.Variant
				},
				Progress: func(done, total int) { progress = append(progress, [2]int{done, total}) },
				PreEvaluate: func(lattice []int64) error {
					offered = append(offered, append([]int64(nil), lattice...))
					return nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(streamed) != f.Evals {
				t.Errorf("streamed %d points, want Evals = %d", len(streamed), f.Evals)
			}
			for i := 0; i < f.Evals; i++ {
				if _, ok := streamed[i]; !ok {
					t.Errorf("no streamed point has index %d", i)
				}
			}

			if len(progress) != f.Evals {
				t.Errorf("%d progress calls, want %d", len(progress), f.Evals)
			}
			for i, pr := range progress {
				if pr[1] != tc.planned {
					t.Errorf("progress call %d total = %d, want %d", i, pr[1], tc.planned)
				}
				if i > 0 && pr[0] <= progress[i-1][0] {
					t.Errorf("progress not strictly increasing: %v then %v", progress[i-1], pr)
				}
			}
			if n := len(progress); n == 0 || progress[n-1] != [2]int{f.Evals, tc.planned} {
				t.Errorf("progress calls %v, want the last to be [%d %d]", progress, f.Evals, tc.planned)
			}

			if len(offered) != tc.calls {
				t.Errorf("PreEvaluate called %d times, want %d", len(offered), tc.calls)
			}
			var order []int64 // lattice indices in evaluation order
			seen := map[int64]bool{}
			for _, gen := range offered {
				if len(gen) == 0 {
					t.Error("PreEvaluate called with no indices")
				}
				for _, lat := range gen {
					if seen[lat] {
						t.Errorf("lattice index %d offered twice", lat)
					}
					seen[lat] = true
					order = append(order, lat)
				}
			}
			if len(order) != f.Evals {
				t.Fatalf("PreEvaluate saw %d indices, want Evals = %d", len(order), f.Evals)
			}
			if tc.name == "grid" {
				for i, lat := range order {
					if lat != int64(i) {
						t.Fatalf("grid offered lattice %d at position %d", lat, i)
					}
				}
			}
			for _, fp := range f.Points {
				if fp.Index < 0 || fp.Index >= f.Evals || order[fp.Index] != fp.Lattice {
					t.Errorf("frontier point index %d does not count evaluation order (lattice %d)", fp.Index, fp.Lattice)
					continue
				}
				if streamed[fp.Index] != fp.Variant {
					t.Errorf("frontier point %d is %q, streamed as %q", fp.Index, fp.Variant, streamed[fp.Index])
				}
			}
		})
	}
}
