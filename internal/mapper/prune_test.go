package mapper

import (
	"fmt"
	"math/rand"
	"testing"

	"photoloop/internal/arch"
	"photoloop/internal/components"
	"photoloop/internal/mapping"
	"photoloop/internal/workload"
)

// photonicTestArch builds an Albireo-shaped hierarchy (streaming input
// station, capped analog levels, converter chains) without importing the
// albireo package (which would cycle): the population on which pruning and
// the temporal-cap pre-filter actually bite.
func photonicTestArch(t *testing.T) *arch.Arch {
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
	mk("sram", "Buf", components.Params{"capacity_bits": 1 << 23, "access_bits": 8})
	mk("dac", "DAC", components.Params{"bits": 8, "pj_per_bit": 0.05})
	mk("adc", "ADC", components.Params{"bits": 8, "walden_fj_per_step": 50})
	mk("mzm", "MZM", components.Params{"modulate_pj": 1})
	mk("mrr", "MRR", components.Params{"program_pj": 2, "transit_pj": 0.01})
	mk("photodiode", "PD", components.Params{"detect_pj": 0.5})
	mk("laser", "Laser", components.Params{"per_mac_pj": 0.25})
	a := &arch.Arch{
		Name: "photonic-test", Lib: lib, ClockGHz: 1, DefaultWordBits: 8,
		Levels: []arch.Level{
			{Name: "DRAM", Keeps: workload.AllTensorSet(), AccessComponent: "DRAM", BandwidthWordsPerCycle: 32},
			{
				Name: "Glb", Keeps: workload.AllTensorSet(), AccessComponent: "Buf",
				CapacityBits: 1 << 23,
				Spatial:      []arch.SpatialFactor{arch.Choice(4, workload.DimC, workload.DimK, workload.DimN)},
			},
			{
				Name: "Mod", Keeps: workload.NewTensorSet(workload.Inputs),
				Streaming: true, InputOverlapSharing: true,
				Spatial: []arch.SpatialFactor{
					arch.Choice(8, workload.DimQ, workload.DimP, workload.DimN),
					arch.Choice(3, workload.DimK, workload.DimN),
				},
				FillVia: map[workload.Tensor][]arch.ActionRef{
					workload.Inputs: {
						{Component: "DAC", Action: "convert"},
						{Component: "MZM", Action: "modulate"},
					},
				},
			},
			{
				Name: "Acc", Keeps: workload.NewTensorSet(workload.Outputs),
				WordBits: 24, CapacityBits: 24 * 4, MaxTemporalProduct: 1,
				Spatial: []arch.SpatialFactor{arch.Choice(3, workload.DimS, workload.DimC)},
				UpdateVia: map[workload.Tensor][]arch.ActionRef{
					workload.Outputs: {{Component: "PD", Action: "detect"}},
				},
				DrainVia: map[workload.Tensor][]arch.ActionRef{
					workload.Outputs: {{Component: "ADC", Action: "convert"}},
				},
			},
			{
				Name: "Ring", Keeps: workload.NewTensorSet(workload.Weights),
				MaxTemporalProduct: 1,
				FillVia: map[workload.Tensor][]arch.ActionRef{
					workload.Weights: {
						{Component: "DAC", Action: "convert"},
						{Component: "MRR", Action: "program"},
					},
				},
			},
		},
		Compute: arch.Compute{
			Name: "Optical",
			PerMAC: []arch.ActionRef{
				{Component: "Laser", Action: "supply"},
				{Component: "MRR", Action: "transit"},
			},
		},
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	return a
}

// compareBests asserts two search outcomes are bit-identical in everything
// observable: mapping, score surface, and evaluation count.
func compareBests(t *testing.T, label string, got, want *Best) {
	t.Helper()
	if got.Result.TotalPJ != want.Result.TotalPJ {
		t.Fatalf("%s: TotalPJ %.12g != %.12g", label, got.Result.TotalPJ, want.Result.TotalPJ)
	}
	if got.Result.Cycles != want.Result.Cycles {
		t.Fatalf("%s: Cycles %.12g != %.12g", label, got.Result.Cycles, want.Result.Cycles)
	}
	if got.Result.Utilization != want.Result.Utilization {
		t.Fatalf("%s: Utilization diverged", label)
	}
	if got.Mapping.String() != want.Mapping.String() {
		t.Fatalf("%s: mapping diverged:\n%s\nvs\n%s", label, got.Mapping, want.Mapping)
	}
	if got.Evaluations != want.Evaluations {
		t.Fatalf("%s: Evaluations %d != %d", label, got.Evaluations, want.Evaluations)
	}
}

// TestPrunedSearchMatchesUnprunedSampler is the tentpole equivalence test:
// the optimized search must return a bit-identical Best to the naive
// always-evaluate sampler (referenceSearch) for every configuration —
// electrical and photonic architectures, all objectives, several (budget,
// workers, seed) splits, with and without seeds.
func TestPrunedSearchMatchesUnprunedSampler(t *testing.T) {
	archs := map[string]*arch.Arch{
		"electrical": testArch(t, 1<<20),
		"photonic":   photonicTestArch(t),
	}
	layers := []workload.Layer{
		workload.NewConv("conv", 1, 32, 16, 14, 14, 3, 3, 1, 1),
		workload.NewConv("strided", 2, 16, 8, 8, 8, 3, 3, 2, 1),
		workload.NewFC("fc", 1, 64, 128),
	}
	type cfg struct {
		budget, workers int
		seed            int64
		obj             Objective
		seeded          bool
	}
	cfgs := []cfg{
		{300, 1, 1, MinEnergy, false},
		{300, 2, 5, MinEnergy, false},
		{250, 4, 9, MinDelay, false},
		{320, 8, 3, MinEDP, false},
		// Seeded, as every Albireo production search is.
		{300, 2, 5, MinEnergy, true},
		{250, 4, 9, MinEDP, true},
	}
	for name, a := range archs {
		s, err := NewSession(a)
		if err != nil {
			t.Fatal(err)
		}
		for li, l := range layers {
			// Seeds: the canonical all-outer mapping and a random draw.
			outer := mapping.New(a)
			outerInto(a, outer, &l, s.assignments[0], s.minLv)
			drawn := mapping.New(a)
			cands := s.drawCandidates(new(drawArena), &l, rand.New(rand.NewSource(int64(li))), 1, a.NumLevels())
			s.materialize(drawn, &cands[0], false)
			for _, c := range cfgs {
				opts := Options{Objective: c.obj, Budget: c.budget, Seed: c.seed, Workers: c.workers}
				if c.seeded {
					opts.Seeds = SeedList([]*mapping.Mapping{outer, drawn})
				}
				pruned, err := s.Search(&l, opts)
				if err != nil {
					t.Fatalf("%s/%s: %v", name, l.Name, err)
				}
				unpruned := referenceSearch(t, s, &l, opts)
				compareBests(t, name+"/"+l.Name, pruned, unpruned)
				if unpruned.Stats.Pruned != 0 || unpruned.Stats.DeltaEvals != 0 {
					t.Fatalf("reference sampler pruned or delta-evaluated: %+v", unpruned.Stats)
				}
			}
		}
	}
}

// TestBatchedSearchMatchesReferencePath pins the fused stage-then-finish
// scoring path (one shared-prefix core resolution serving both the
// admissible bound and the finishing passes) to the reference search,
// which validates and fully evaluates every candidate in draw order: the
// Best must be bit-identical at 1, 2 and 8 workers, for an energy and an
// EDP objective.
func TestBatchedSearchMatchesReferencePath(t *testing.T) {
	archs := map[string]*arch.Arch{
		"electrical": testArch(t, 1<<20),
		"photonic":   photonicTestArch(t),
	}
	layers := []workload.Layer{
		workload.NewConv("conv", 1, 32, 16, 14, 14, 3, 3, 1, 1),
		workload.NewFC("fc", 1, 64, 128),
	}
	for name, a := range archs {
		s, err := NewSession(a)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range layers {
			for _, workers := range []int{1, 2, 8} {
				for _, obj := range []Objective{MinEnergy, MinEDP} {
					opts := Options{Objective: obj, Budget: 320, Seed: 3, Workers: workers}
					batched, err := s.Search(&l, opts)
					if err != nil {
						t.Fatalf("%s/%s: %v", name, l.Name, err)
					}
					unbatched := referenceSearch(t, s, &l, opts)
					label := fmt.Sprintf("%s/%s/w%d/%v", name, l.Name, workers, obj)
					compareBests(t, label, batched, unbatched)
				}
			}
		}
	}
}

// TestDrawCandidatesMatchesRandomMapping pins the compact draw pipeline to
// the reference generator: for the same rng stream, drawCandidates +
// materialize must produce exactly the mappings randomMapping produced —
// including the cap-aware skips on levels that forbid temporal loops.
func TestDrawCandidatesMatchesRandomMapping(t *testing.T) {
	for _, a := range []*arch.Arch{testArch(t, 1<<20), photonicTestArch(t)} {
		s, err := NewSession(a)
		if err != nil {
			t.Fatal(err)
		}
		l := workload.NewConv("draw", 1, 24, 12, 10, 10, 3, 3, 1, 1)
		const k = 200
		legacy := rand.New(rand.NewSource(17))
		var want []*mapping.Mapping
		for i := 0; i < k; i++ {
			assign := s.assignments[0]
			if legacy.Intn(2) == 0 {
				assign = s.assignments[legacy.Intn(len(s.assignments))]
			}
			want = append(want, randomMapping(a, &l, assign, s.minLv, legacy))
		}
		rng := rand.New(rand.NewSource(17))
		cands := s.drawCandidates(new(drawArena), &l, rng, k, a.NumLevels())
		buf := mapping.New(a)
		for i := range cands {
			s.materialize(buf, &cands[i], false)
			if buf.Fingerprint() != want[i].Fingerprint() || buf.String() != want[i].String() {
				t.Fatalf("%s: candidate %d diverged from randomMapping:\n%s\nvs\n%s", a.Name, i, buf, want[i])
			}
		}
	}
}

// TestSplitBudgetExact pins the budget-remainder fix: the per-worker
// budgets must sum to exactly the configured budget with a spread of at
// most one evaluation, for divisible and non-divisible splits alike.
func TestSplitBudgetExact(t *testing.T) {
	for _, tc := range []struct{ budget, workers int }{
		{2000, 8}, {500, 8}, {503, 8}, {7, 3}, {3, 8}, {1, 1}, {0, 4}, {97, 13},
	} {
		got := splitBudget(tc.budget, tc.workers)
		if len(got) != tc.workers {
			t.Fatalf("split(%d,%d): %d workers", tc.budget, tc.workers, len(got))
		}
		sum, min, max := 0, got[0], got[0]
		for _, b := range got {
			sum += b
			if b < min {
				min = b
			}
			if b > max {
				max = b
			}
		}
		if sum != tc.budget {
			t.Errorf("split(%d,%d) spends %d", tc.budget, tc.workers, sum)
		}
		if max-min > 1 {
			t.Errorf("split(%d,%d) uneven: min %d max %d", tc.budget, tc.workers, min, max)
		}
	}
}

// TestBudgetSpentExactly checks end to end that a non-divisible budget is
// no longer silently truncated: the exploration phase alone must consume
// at least 7/10 of the full configured budget summed across workers.
func TestBudgetSpentExactly(t *testing.T) {
	a := testArch(t, 1<<20)
	l := workload.NewConv("l", 1, 16, 8, 8, 8, 3, 3, 1, 1)
	// 503 over 8 workers: the old perWorker=62 split spent 496.
	best, err := Search(a, &l, Options{Budget: 503, Seed: 2, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if best.Evaluations > 503 {
		t.Fatalf("spent %d, budget 503", best.Evaluations)
	}
	// Per worker the exploration phase consumes floor(b*7/10) exactly;
	// with the remainder distributed that is at least 348 here. The old
	// truncated split could not exceed 496 total even when the climb ran
	// to exhaustion; equality with the budget means no worker lost its
	// remainder share.
	minExploration := 0
	for _, b := range splitBudget(503, 8) {
		minExploration += b * 7 / 10
	}
	if best.Evaluations < minExploration {
		t.Fatalf("spent %d, exploration alone should consume >= %d", best.Evaluations, minExploration)
	}
}

// TestSearchReproducibleAcrossWorkerCounts documents the determinism
// contract: for each fixed Workers value the search is exactly
// reproducible, while different Workers values legitimately return
// different (but individually deterministic) results — each worker owns an
// independent rng stream and budget slice, so the candidate set itself
// depends on the split. See the Options.Workers doc.
func TestSearchReproducibleAcrossWorkerCounts(t *testing.T) {
	a := photonicTestArch(t)
	s, err := NewSession(a)
	if err != nil {
		t.Fatal(err)
	}
	l := workload.NewConv("rep", 1, 32, 16, 14, 14, 3, 3, 1, 1)
	for _, workers := range []int{1, 2, 8} {
		opts := Options{Budget: 400, Seed: 11, Workers: workers}
		first, err := s.Search(&l, opts)
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 2; rep++ {
			again, err := s.Search(&l, opts)
			if err != nil {
				t.Fatal(err)
			}
			compareBests(t, "workers", again, first)
		}
	}
}

// TestSearchStatsAccounting checks the stats identity: every budgeted
// attempt lands in exactly one bucket.
func TestSearchStatsAccounting(t *testing.T) {
	a := photonicTestArch(t)
	l := workload.NewConv("stats", 1, 32, 16, 14, 14, 3, 3, 1, 1)
	best, err := Search(a, &l, Options{Budget: 400, Seed: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	st := best.Stats
	sum := st.Pruned + st.DeltaEvals + st.FullEvals + st.Duplicates + st.Invalid
	if sum != best.Evaluations {
		t.Fatalf("stats %+v sum to %d, evaluations %d", st, sum, best.Evaluations)
	}
	if st.FullEvals == 0 {
		t.Error("no full evaluations recorded")
	}
	if f := st.PrunedFraction(); f < 0 || f > 1 {
		t.Errorf("pruned fraction %g out of range", f)
	}
}
