package mapper

import (
	"testing"

	"photoloop/internal/arch"
	"photoloop/internal/components"
	"photoloop/internal/mapping"
	"photoloop/internal/model"
	"photoloop/internal/workload"
)

func testArch(t *testing.T, bufCapBits int64) *arch.Arch {
	t.Helper()
	lib := components.NewLibrary()
	mk := func(class, name string, p components.Params) {
		c, err := components.Build(class, name, p)
		if err != nil {
			t.Fatal(err)
		}
		lib.MustAdd(c)
	}
	mk("dram", "DRAM", components.Params{"pj_per_bit": 8})
	mk("sram", "Buf", components.Params{"capacity_bits": float64(bufCapBits), "access_bits": 8})
	mk("regfile", "Reg", components.Params{"access_bits": 8})
	a := &arch.Arch{
		Name: "searchable", Lib: lib, ClockGHz: 1, DefaultWordBits: 8,
		Levels: []arch.Level{
			{Name: "DRAM", Keeps: workload.AllTensorSet(), AccessComponent: "DRAM"},
			{
				Name: "Buf", Keeps: workload.AllTensorSet(), AccessComponent: "Buf",
				CapacityBits: bufCapBits,
				Spatial:      []arch.SpatialFactor{arch.Choice(4, workload.DimK, workload.DimC)},
			},
			{Name: "Reg", Keeps: workload.AllTensorSet(), AccessComponent: "Reg", CapacityBits: 2048},
		},
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	return a
}

func TestSearchFindsValidMapping(t *testing.T) {
	a := testArch(t, 1<<20)
	l := workload.NewConv("l", 1, 16, 8, 8, 8, 3, 3, 1, 1)
	best, err := Search(a, &l, Options{Budget: 400, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if err := best.Mapping.Validate(a, &l); err != nil {
		t.Fatalf("returned invalid mapping: %v", err)
	}
	if best.Result.TotalPJ <= 0 {
		t.Error("zero energy result")
	}
	if best.Evaluations == 0 {
		t.Error("no evaluations recorded")
	}
}

func TestSearchDeterministicForSeed(t *testing.T) {
	a := testArch(t, 1<<20)
	l := workload.NewConv("l", 1, 16, 8, 8, 8, 3, 3, 1, 1)
	b1, err := Search(a, &l, Options{Budget: 300, Seed: 9, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	b2, err := Search(a, &l, Options{Budget: 300, Seed: 9, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if b1.Result.TotalPJ != b2.Result.TotalPJ {
		t.Errorf("same seed, different results: %g vs %g", b1.Result.TotalPJ, b2.Result.TotalPJ)
	}
	if b1.Mapping.String() != b2.Mapping.String() {
		t.Error("same seed, different mappings")
	}
}

func TestSearchBeatsNaiveOuterMapping(t *testing.T) {
	a := testArch(t, 1<<20)
	l := workload.NewConv("l", 1, 16, 16, 8, 8, 3, 3, 1, 1)
	best, err := Search(a, &l, Options{Budget: 1500, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Naive: everything at DRAM level, canonical spatial choice.
	assign := []workload.Dim{workload.DimK}
	naive := outerMapping(a, &l, assign, minLevels(a))
	naiveRes, err := model.Evaluate(a, &l, naive, model.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if best.Result.TotalPJ >= naiveRes.TotalPJ {
		t.Errorf("search %g pJ did not beat naive %g pJ", best.Result.TotalPJ, naiveRes.TotalPJ)
	}
}

func TestSearchRespectsCapacity(t *testing.T) {
	// Tiny buffer: the only valid mappings keep tiles small.
	a := testArch(t, 4096)
	l := workload.NewConv("l", 1, 8, 8, 8, 8, 3, 3, 1, 1)
	best, err := Search(a, &l, Options{Budget: 800, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := best.Mapping.Validate(a, &l); err != nil {
		t.Fatalf("capacity-violating mapping returned: %v", err)
	}
}

func TestSearchSpatialChoiceMatters(t *testing.T) {
	// With K=2 but C=64, assigning the 4-way spatial factor to C must win
	// on utilization (and it is the only way to reach full throughput).
	a := testArch(t, 1<<20)
	l := workload.NewConv("l", 1, 2, 64, 8, 8, 1, 1, 1, 0)
	best, err := Search(a, &l, Options{Objective: MinDelay, Budget: 1200, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	choice := best.Mapping.Levels[1].SpatialChoice[0]
	if choice != workload.DimC {
		t.Errorf("spatial choice = %v, want C (K=2 would waste half the array)", choice)
	}
}

func TestExhaustiveMatchesOrBeatsRandom(t *testing.T) {
	a := testArch(t, 1<<20)
	l := workload.NewConv("l", 1, 4, 4, 2, 2, 1, 1, 1, 0)
	ex, err := Exhaustive(a, &l, MinEnergy, 0)
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := Search(a, &l, Options{Budget: 2000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Result.TotalPJ > rnd.Result.TotalPJ+1e-9 {
		t.Errorf("exhaustive %g pJ worse than random %g pJ", ex.Result.TotalPJ, rnd.Result.TotalPJ)
	}
}

func TestExhaustiveRejectsHugeSpaces(t *testing.T) {
	a := testArch(t, 1<<20)
	l := workload.NewConv("l", 1, 512, 512, 56, 56, 3, 3, 1, 1)
	if _, err := Exhaustive(a, &l, MinEnergy, 1000); err == nil {
		t.Error("Exhaustive accepted a huge space")
	}
}

func TestObjectives(t *testing.T) {
	a := testArch(t, 1<<20)
	l := workload.NewConv("l", 1, 16, 8, 8, 8, 3, 3, 1, 1)
	for _, obj := range []Objective{MinEnergy, MinDelay, MinEDP} {
		best, err := Search(a, &l, Options{Objective: obj, Budget: 300, Seed: 8})
		if err != nil {
			t.Fatalf("%v: %v", obj, err)
		}
		if Score(obj, best.Result) <= 0 {
			t.Errorf("%v: non-positive score", obj)
		}
	}
	if MinEnergy.String() != "energy" || MinDelay.String() != "delay" || MinEDP.String() != "edp" {
		t.Error("objective names wrong")
	}
}

func TestScoreDefinition(t *testing.T) {
	r := &model.Result{TotalPJ: 10, Cycles: 5}
	if Score(MinEnergy, r) != 10 || Score(MinDelay, r) != 5 || Score(MinEDP, r) != 50 {
		t.Error("Score definitions wrong")
	}
}

func TestEnumerateSpatialAssignments(t *testing.T) {
	a := testArch(t, 1<<20)
	assigns := enumerateSpatialAssignments(a)
	// One factor with two choices (K or C).
	if len(assigns) != 2 {
		t.Fatalf("got %d assignments, want 2", len(assigns))
	}
}

// TestMalformedSeedDoesNotShadow guards the fingerprint-dedup fix: an
// invalid seed (short permutation) must not block later valid schedules
// that hash to the same fingerprint (only trip>1 loops are hashed), so a
// search given a broken seed finds the same optimum as one given none.
func TestMalformedSeedDoesNotShadow(t *testing.T) {
	a := testArch(t, 1<<20)
	l := workload.NewConv("l", 1, 16, 8, 8, 8, 3, 3, 1, 1)
	bad := mapping.New(a)
	applyAssignment(a, bad, []workload.Dim{workload.DimK})
	for _, d := range workload.AllDims() {
		bad.Levels[0].Temporal[d] = l.Bound(d)
	}
	bad.Levels[0].Temporal[workload.DimK] = 4   // spatial covers the rest
	bad.Levels[0].Perm = bad.Levels[0].Perm[:5] // malformed: 5 of 7 dims
	opts := Options{Budget: 300, Seed: 13, Workers: 2}
	clean, err := Search(a, &l, opts)
	if err != nil {
		t.Fatal(err)
	}
	seededOpts := opts
	seededOpts.Seeds = SeedList([]*mapping.Mapping{bad})
	seeded, err := Search(a, &l, seededOpts)
	if err != nil {
		t.Fatal(err)
	}
	if seeded.Result.TotalPJ > clean.Result.TotalPJ {
		t.Errorf("malformed seed degraded the search: %g > %g pJ",
			seeded.Result.TotalPJ, clean.Result.TotalPJ)
	}
}

// manyFactorArch builds an architecture whose spatial-assignment cross
// product exceeds the enumeration cap: nFactors two-way (K or C) factors.
func manyFactorArch(t *testing.T, nFactors int, reversed bool) *arch.Arch {
	t.Helper()
	lib := components.NewLibrary()
	mk := func(class, name string, p components.Params) {
		c, err := components.Build(class, name, p)
		if err != nil {
			t.Fatal(err)
		}
		lib.MustAdd(c)
	}
	mk("dram", "DRAM", components.Params{"pj_per_bit": 8})
	mk("regfile", "Reg", components.Params{"access_bits": 8})
	var spatial []arch.SpatialFactor
	for i := 0; i < nFactors; i++ {
		f := arch.Choice(2, workload.DimK, workload.DimC)
		if reversed {
			f = arch.Choice(2, workload.DimC, workload.DimK)
		}
		spatial = append(spatial, f)
	}
	a := &arch.Arch{
		Name: "manyfactor", Lib: lib, ClockGHz: 1, DefaultWordBits: 8,
		Levels: []arch.Level{
			{Name: "DRAM", Keeps: workload.AllTensorSet(), AccessComponent: "DRAM", Spatial: spatial},
			{Name: "Reg", Keeps: workload.AllTensorSet(), AccessComponent: "Reg"},
		},
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	return a
}

// TestEnumerateSpatialAssignmentsCapUnbiased guards the truncation-bias
// fix: when the cross product exceeds the cap, the sample must still
// represent both alternates of every factor — the old prefix truncation
// pinned the leading factors to their canonical dimension.
func TestEnumerateSpatialAssignmentsCapUnbiased(t *testing.T) {
	const nFactors = 13 // 2^13 = 8192 > 4096
	a := manyFactorArch(t, nFactors, false)
	assigns := enumerateSpatialAssignments(a)
	if len(assigns) != maxSpatialAssignments {
		t.Fatalf("got %d assignments, want %d", len(assigns), maxSpatialAssignments)
	}
	// Canonical assignment first.
	for j, d := range assigns[0] {
		if d != workload.DimK {
			t.Fatalf("assignment 0 factor %d = %v, want canonical K", j, d)
		}
	}
	// Every factor position must see both alternates somewhere.
	for j := 0; j < nFactors; j++ {
		seen := map[workload.Dim]bool{}
		for _, assign := range assigns {
			seen[assign[j]] = true
		}
		if !seen[workload.DimK] || !seen[workload.DimC] {
			t.Errorf("factor %d: alternates dropped (saw %v)", j, seen)
		}
	}
	// Deterministic across calls.
	again := enumerateSpatialAssignments(a)
	for i := range assigns {
		for j := range assigns[i] {
			if assigns[i][j] != again[i][j] {
				t.Fatalf("enumeration not deterministic at %d/%d", i, j)
			}
		}
	}
}

// TestEnumerateSpatialAssignmentsFullOrder checks the sub-cap enumeration:
// lexicographic, first factor most significant, canonical first.
func TestEnumerateSpatialAssignmentsFullOrder(t *testing.T) {
	a := manyFactorArch(t, 2, false)
	assigns := enumerateSpatialAssignments(a)
	want := [][]workload.Dim{
		{workload.DimK, workload.DimK},
		{workload.DimK, workload.DimC},
		{workload.DimC, workload.DimK},
		{workload.DimC, workload.DimC},
	}
	if len(assigns) != len(want) {
		t.Fatalf("got %d assignments, want %d", len(assigns), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if assigns[i][j] != want[i][j] {
				t.Errorf("assignment %d = %v, want %v", i, assigns[i], want[i])
			}
		}
	}
}

func TestRemainingAccountsForSpatial(t *testing.T) {
	a := testArch(t, 1<<20)
	l := workload.NewConv("l", 1, 16, 8, 8, 8, 3, 3, 1, 1)
	m := mapping.New(a)
	applyAssignment(a, m, []workload.Dim{workload.DimK})
	rem := remaining(a, m, &l)
	if rem[workload.DimK] != 4 { // 16 / spatial 4
		t.Errorf("remaining K = %d, want 4", rem[workload.DimK])
	}
	if rem[workload.DimC] != 8 {
		t.Errorf("remaining C = %d, want 8", rem[workload.DimC])
	}
}
