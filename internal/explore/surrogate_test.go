package explore

import (
	"reflect"
	"testing"

	"photoloop/internal/sweep"
)

// surrogateSpec is the surrogate suite's fixture: a 1024-point lever
// space over a one-layer workload, large enough that a budgeted run sees
// a few percent of the lattice yet coarse enough that its true Pareto
// frontier is compact — so full-budget and half-budget runs can both be
// judged against the frontier points they actually find. Seed and
// workers are pinned like every other determinism fixture here.
func surrogateSpec(budget int) Spec {
	return Spec{
		Name: "test-surrogate",
		Base: sweep.Base{Albireo: &sweep.AlbireoBase{}},
		Axes: []Axis{
			{Param: "or_lanes", Min: float(1), Max: float(8)},
			{Param: "output_lanes", Min: float(1), Max: float(16)},
			{Param: "clusters", Min: float(1), Max: float(8)},
		},
		Workload:      sweep.Workload{Inline: tinyLayer()},
		Objectives:    []string{"pj_per_mac", "area"},
		Budget:        budget,
		MapperBudget:  40,
		Seed:          2,
		SearchWorkers: 1,
	}
}

// frontierCovered reports whether every point of ref is dominated or
// equaled by some point of got (objective vectors compared exactly).
func frontierCovered(t *testing.T, got, ref *Frontier) bool {
	t.Helper()
	coveredAll := true
	for i := range ref.Points {
		rp := &ref.Points[i]
		covered := false
		for j := range got.Points {
			gp := &got.Points[j]
			if reflect.DeepEqual(gp.Objectives, rp.Objectives) || dominates(gp.Objectives, rp.Objectives) {
				covered = true
				break
			}
		}
		if !covered {
			coveredAll = false
			t.Logf("reference point %d (lattice %d, objs %v) not covered", i, rp.Lattice, rp.Objectives)
		}
	}
	return coveredAll
}

// TestSurrogateHalfBudgetDominatesReference is the surrogate's
// effectiveness anchor: the ranked search at half the budget must reach a
// frontier that dominates-or-equals every point the plain mutate-and-jump
// search (the pre-surrogate explorer, preserved as the noSurrogate
// reference mode) finds with the full budget. Since a truly
// Pareto-optimal reference point can only be covered by finding it
// exactly, this asserts the surrogate rediscovers the reference's whole
// frontier on half the evaluations.
func TestSurrogateHalfBudgetDominatesReference(t *testing.T) {
	ref := surrogateSpec(96)
	ref.noSurrogate = true
	fr, err := Run(ref, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fr.SurrogateRanked != 0 || fr.SurrogateKept != 0 {
		t.Fatalf("reference mode reported surrogate activity: %d ranked, %d kept",
			fr.SurrogateRanked, fr.SurrogateKept)
	}
	sur, err := Run(surrogateSpec(48), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sur.Evals != 48 {
		t.Fatalf("surrogate run spent %d evals, want 48", sur.Evals)
	}
	if sur.SurrogateRanked == 0 || sur.SurrogateKept == 0 {
		t.Fatal("surrogate never armed on the fixture")
	}
	if sur.SurrogateKept >= sur.SurrogateRanked {
		t.Fatalf("surrogate kept %d of %d ranked proposals; ranking never rejected anything",
			sur.SurrogateKept, sur.SurrogateRanked)
	}
	if !frontierCovered(t, sur, fr) {
		t.Errorf("surrogate frontier at budget 48 does not cover the reference frontier at budget 96:\nsurrogate: %d points\nreference: %d points",
			len(sur.Points), len(fr.Points))
	}
}

// TestSurrogateDeterministicAcrossWorkers pins the surrogate path's
// concurrency contract separately from the generic adaptive one: with the
// ranker demonstrably active (counters checked), the frontier and all
// accounting must be identical at 1, 2 and 8 evaluation workers.
func TestSurrogateDeterministicAcrossWorkers(t *testing.T) {
	var base *Frontier
	for _, workers := range []int{1, 2, 8} {
		f, err := Run(surrogateSpec(48), Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if f.SurrogateRanked == 0 {
			t.Fatalf("workers=%d: surrogate never armed", workers)
		}
		if base == nil {
			base = f
			continue
		}
		if !reflect.DeepEqual(f, base) {
			t.Errorf("workers=%d: frontier differs from workers=1", workers)
		}
	}
}

// TestFrontierAggregatesSearchFunnel checks the mapper's search funnel
// surfaces on the frontier: the evaluated points' pruned/delta/full
// counters must sum to something visible (the whole point of reporting
// them), on both strategies.
func TestFrontierAggregatesSearchFunnel(t *testing.T) {
	fg, err := Run(smallSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fg.FullEvals == 0 {
		t.Errorf("grid frontier reports no full evaluations")
	}
	fa, err := Run(surrogateSpec(48), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fa.FullEvals == 0 {
		t.Errorf("adaptive frontier reports no full evaluations")
	}
	if fa.Pruned == 0 {
		t.Errorf("adaptive frontier reports no pruned candidates; the bound gate never fired")
	}
}
