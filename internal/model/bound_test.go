package model

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"photoloop/internal/arch"
	"photoloop/internal/components"
	"photoloop/internal/mapping"
	"photoloop/internal/workload"
)

// photonicArch builds a 5-level Albireo-shaped hierarchy — streaming
// modulated-input station, analog output accumulator, weight ring bank —
// with randomized converter bases and reuse flags, so the bound's streaming,
// PerDistinct, multicast and spatial-reduction terms are all exercised.
func photonicArch(t *testing.T, rng *rand.Rand) *arch.Arch {
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
	mk("sram", "Glb", components.Params{"capacity_bits": 1 << 24, "access_bits": 8})
	mk("dac", "InDAC", components.Params{"bits": 8, "pj_per_bit": 0.05})
	mk("dac", "WDAC", components.Params{"bits": 8, "pj_per_bit": 0.03})
	mk("adc", "ADC", components.Params{"bits": 8, "walden_fj_per_step": 50})
	mk("mzm", "MZM", components.Params{"modulate_pj": 1})
	mk("mrr", "MRR", components.Params{"program_pj": 2, "transit_pj": 0.01})
	mk("photodiode", "PD", components.Params{"detect_pj": 0.5})
	mk("laser", "Laser", components.Params{"per_mac_pj": 0.25})

	a := &arch.Arch{
		Name: "photonic-rand", Lib: lib, ClockGHz: 1, DefaultWordBits: 8,
		Levels: []arch.Level{
			{Name: "DRAM", Keeps: workload.AllTensorSet(), AccessComponent: "DRAM"},
			{
				Name: "Glb", Keeps: workload.AllTensorSet(), AccessComponent: "Glb",
				Spatial:     []arch.SpatialFactor{arch.Choice(1+rng.Intn(3), workload.DimC, workload.DimK, workload.DimN)},
				NoMulticast: rng.Intn(3) == 0,
			},
			{
				Name: "Mod", Keeps: workload.NewTensorSet(workload.Inputs),
				Streaming:           true,
				InputOverlapSharing: rng.Intn(2) == 0,
				Spatial: []arch.SpatialFactor{
					arch.Choice(1+rng.Intn(4), workload.DimQ, workload.DimP, workload.DimN),
					arch.Choice(1+rng.Intn(3), workload.DimK, workload.DimN),
				},
				FillVia: map[workload.Tensor][]arch.ActionRef{
					workload.Inputs: {
						{Component: "InDAC", Action: components.ActionConvert, PerDistinct: rng.Intn(2) == 0},
						{Component: "MZM", Action: components.ActionModulate},
					},
				},
			},
			{
				Name: "Acc", Keeps: workload.NewTensorSet(workload.Outputs),
				WordBits: 24,
				Spatial:  []arch.SpatialFactor{arch.Choice(1+rng.Intn(3), workload.DimS, workload.DimC)},
				UpdateVia: map[workload.Tensor][]arch.ActionRef{
					workload.Outputs: {{Component: "PD", Action: components.ActionDetect}},
				},
				DrainVia: map[workload.Tensor][]arch.ActionRef{
					workload.Outputs: {{Component: "ADC", Action: components.ActionConvert, PerDistinct: rng.Intn(2) == 0}},
				},
				NoSpatialReduce: rng.Intn(4) == 0,
			},
			{
				Name: "Ring", Keeps: workload.NewTensorSet(workload.Weights),
				FillVia: map[workload.Tensor][]arch.ActionRef{
					workload.Weights: {
						{Component: "WDAC", Action: components.ActionConvert},
						{Component: "MRR", Action: components.ActionProgram},
					},
				},
			},
		},
		Compute: arch.Compute{
			Name: "Optical",
			PerMAC: []arch.ActionRef{
				{Component: "Laser", Action: components.ActionSupply},
				{Component: "MRR", Action: components.ActionTransit},
			},
		},
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	return a
}

// randSearchStyleMapping draws a padded random mapping the way the mapper
// does: candidate factors innermost-out per dimension, residue at the
// outermost level, random permutations per level.
func randSearchStyleMapping(rng *rand.Rand, a *arch.Arch, l *workload.Layer) *mapping.Mapping {
	m := mapping.New(a)
	drawTemporal(rng, a, l, m)
	// Occasionally randomize the spatial assignment like the mapper does.
	drawSpatial(rng, a, m, 0)
	return m
}

// drawTemporal redraws m's temporal factors and permutations under its
// current spatial configuration.
func drawTemporal(rng *rand.Rand, a *arch.Arch, l *workload.Layer, m *mapping.Mapping) {
	n := a.NumLevels()
	spatial := workload.Ones()
	for i := 0; i < n; i++ {
		spatial = spatial.Mul(m.SpatialAt(a, i))
		m.Levels[i].Temporal = workload.Ones()
	}
	for _, d := range workload.AllDims() {
		rem := workload.CeilDiv(l.Bound(d), spatial[d])
		for i := n - 1; i > 0 && rem > 1; i-- {
			cands := mapping.PaddedCandidates(rem)
			f := cands[rng.Intn(len(cands))]
			m.Levels[i].Temporal[d] = f
			rem = workload.CeilDiv(rem, f)
		}
		m.Levels[0].Temporal[d] *= rem
	}
	perms := [][]workload.Dim{
		{workload.DimN, workload.DimK, workload.DimP, workload.DimQ, workload.DimC, workload.DimR, workload.DimS},
		{workload.DimK, workload.DimC, workload.DimR, workload.DimS, workload.DimN, workload.DimP, workload.DimQ},
		{workload.DimC, workload.DimP, workload.DimQ, workload.DimR, workload.DimS, workload.DimN, workload.DimK},
	}
	for i := 0; i < n; i++ {
		m.Levels[i].Perm = append([]workload.Dim(nil), perms[rng.Intn(len(perms))]...)
	}
}

// drawSpatial redraws the rigid spatial choices of levels from..n-1.
func drawSpatial(rng *rand.Rand, a *arch.Arch, m *mapping.Mapping, from int) {
	for i := from; i < a.NumLevels(); i++ {
		lv := a.Level(i)
		for j := range lv.Spatial {
			m.Levels[i].SpatialChoice[j] = lv.Spatial[j].Dims[rng.Intn(len(lv.Spatial[j].Dims))]
		}
	}
}

// TestLowerBoundAdmissible is the admissibility property: over randomized
// architectures, layers, mappings and eval options, the bound never
// exceeds the full evaluation's energy or cycles.
func TestLowerBoundAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	checked := 0
	for trial := 0; trial < 400; trial++ {
		var a *arch.Arch
		if trial%2 == 0 {
			a = photonicArch(t, rng)
		} else {
			a = randArch(t, rng)
		}
		l := workload.NewConv("rand",
			1+rng.Intn(2), 1+rng.Intn(8), 1+rng.Intn(8),
			1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(3), 1+rng.Intn(3),
			1+rng.Intn(2), 0)
		m := randSearchStyleMapping(rng, a, &l)
		if err := m.Validate(a, &l); err != nil {
			continue
		}
		c, err := Compile(a, &l)
		if err != nil {
			t.Fatal(err)
		}
		s := c.Engine().NewScratch()
		opts := Options{SkipValidate: true}
		res := &Result{}
		if err := c.EvaluateInto(s, m, res, opts); err != nil {
			continue // architecture/mapping combination the model rejects
		}
		b := c.LowerBound(s, m, opts)
		if b.EnergyPJ > res.TotalPJ {
			t.Fatalf("trial %d: energy bound %.9g exceeds evaluation %.9g\narch %s layer %s\n%s",
				trial, b.EnergyPJ, res.TotalPJ, a.Name, l.String(), m.String())
		}
		if b.Cycles > res.Cycles {
			t.Fatalf("trial %d: cycle bound %g exceeds evaluation %g", trial, b.Cycles, res.Cycles)
		}
		if b.EnergyPJ <= 0 || b.Cycles <= 0 {
			t.Fatalf("trial %d: degenerate bound %+v", trial, b)
		}
		checked++
	}
	if checked < 100 {
		t.Fatalf("only %d trials produced valid mappings", checked)
	}
}

// TestLowerBoundTight sanity-checks that the bound is useful, not merely
// admissible: on the streaming architecture it must recover a substantial
// fraction of the true energy (the streaming refill and per-MAC terms are
// exact), otherwise pruning would never fire.
func TestLowerBoundTight(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := photonicArch(t, rng)
	l := workload.NewConv("tight", 1, 8, 8, 6, 6, 3, 3, 1, 1)
	c, err := Compile(a, &l)
	if err != nil {
		t.Fatal(err)
	}
	s := c.Engine().NewScratch()
	res := &Result{}
	sum, bound := 0.0, 0.0
	for trial := 0; trial < 200; trial++ {
		m := randSearchStyleMapping(rng, a, &l)
		if m.Validate(a, &l) != nil {
			continue
		}
		if err := c.EvaluateInto(s, m, res, Options{SkipValidate: true}); err != nil {
			continue
		}
		sum += res.TotalPJ
		bound += c.LowerBound(s, m, Options{SkipValidate: true}).EnergyPJ
	}
	if sum == 0 {
		t.Fatal("no valid mappings")
	}
	if frac := bound / sum; frac < 0.2 {
		t.Errorf("bound recovers only %.1f%% of true energy — too loose to prune", 100*frac)
	}
}

// TestStageFinishMatchesEvaluateInto is the delta-evaluation equivalence
// property: for randomized mapping sequences with shared outer-level
// prefixes, Stage then FinishStaged through one long-lived scratch is
// bit-identical (every field, full ledger included) to a fresh
// EvaluateInto.
func TestStageFinishMatchesEvaluateInto(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for archTrial := 0; archTrial < 8; archTrial++ {
		var a *arch.Arch
		if archTrial%2 == 0 {
			a = photonicArch(t, rng)
		} else {
			a = randArch(t, rng)
		}
		l := workload.NewConv("seq", 1, 8, 6, 5, 5, 3, 3, 1, 1)
		c, err := Compile(a, &l)
		if err != nil {
			t.Fatal(err)
		}
		n := a.NumLevels()
		delta := c.Engine().NewScratch()
		var prev *mapping.Mapping
		got, want := &Result{}, &Result{}
		opts := Options{SkipValidate: true, FullLedger: true}
		for step := 0; step < 60; step++ {
			var m *mapping.Mapping
			shared := 0
			if prev != nil && step%4 != 0 {
				// Redraw only the levels from `shared` inward, keeping the
				// outer prefix identical to the previous mapping.
				shared = 1 + rng.Intn(n)
				m = prev.Clone()
				fresh := randSearchStyleMapping(rng, a, &l)
				for i := shared; i < n; i++ {
					m.Levels[i] = fresh.Levels[i]
				}
			} else {
				m = randSearchStyleMapping(rng, a, &l)
			}
			if m.Validate(a, &l) != nil {
				continue
			}
			errDelta := stageFinish(c, delta, m, got, opts, shared)
			errFresh := c.EvaluateInto(c.Engine().NewScratch(), m, want, opts)
			if (errDelta == nil) != (errFresh == nil) {
				t.Fatalf("arch %d step %d: delta err %v, fresh err %v", archTrial, step, errDelta, errFresh)
			}
			if errFresh != nil {
				prev = nil // scratch state is stale after a failure
				continue
			}
			if got.TotalPJ != want.TotalPJ || got.Cycles != want.Cycles ||
				got.ComputeCycles != want.ComputeCycles || got.Utilization != want.Utilization ||
				got.PaddedMACs != want.PaddedMACs || got.BottleneckLevel != want.BottleneckLevel {
				t.Fatalf("arch %d step %d (shared %d): delta diverged: %+v vs %+v",
					archTrial, step, shared, got, want)
			}
			if len(got.Usage) != len(want.Usage) || len(got.Energy) != len(want.Energy) {
				t.Fatalf("arch %d step %d: ledger shape diverged", archTrial, step)
			}
			for i := range got.Usage {
				if got.Usage[i] != want.Usage[i] {
					t.Fatalf("arch %d step %d (shared %d): usage %d diverged:\n%+v\n%+v",
						archTrial, step, shared, i, got.Usage[i], want.Usage[i])
				}
			}
			for i := range got.Energy {
				if got.Energy[i] != want.Energy[i] {
					t.Fatalf("arch %d step %d: energy item %d diverged", archTrial, step, i)
				}
			}
			prev = m
		}
	}
}

// stageFinish is a delta evaluation: Stage with shared as both reuse
// counts, then FinishStaged.
func stageFinish(c *Compiled, s *Scratch, m *mapping.Mapping, res *Result, opts Options, shared int) error {
	if _, err := c.Stage(s, m, opts, shared, shared, math.Inf(1)); err != nil {
		return err
	}
	return c.FinishStaged(s, res, opts)
}

// TestStageStaleScratch checks the guard rails: a shared prefix claimed
// against a scratch that never evaluated (or evaluated on another engine)
// degrades to a full evaluation instead of reading garbage.
func TestStageStaleScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := photonicArch(t, rng)
	l := workload.NewConv("stale", 1, 4, 4, 4, 4, 1, 1, 1, 0)
	c, err := Compile(a, &l)
	if err != nil {
		t.Fatal(err)
	}
	m := randSearchStyleMapping(rng, a, &l)
	for m.Validate(a, &l) != nil {
		m = randSearchStyleMapping(rng, a, &l)
	}
	got, want := &Result{}, &Result{}
	if err := c.EvaluateInto(c.Engine().NewScratch(), m, want, Options{SkipValidate: true}); err != nil {
		t.Fatal(err)
	}
	// Fresh scratch with a bogus shared count.
	if err := stageFinish(c, c.Engine().NewScratch(), m, got, Options{SkipValidate: true}, 3); err != nil {
		t.Fatal(err)
	}
	if got.TotalPJ != want.TotalPJ {
		t.Fatalf("stale-scratch evaluation diverged: %g vs %g", got.TotalPJ, want.TotalPJ)
	}
	// Scratch warmed on a different engine.
	other := randArch(t, rng)
	oc, err := Compile(other, &l)
	if err != nil {
		t.Fatal(err)
	}
	s := oc.Engine().NewScratch()
	om := mapping.New(other)
	for _, d := range workload.AllDims() {
		om.Levels[0].Temporal[d] = workload.CeilDiv(l.Bound(d), om.SpatialAt(other, 0)[d]*om.SpatialAt(other, 1)[d]*om.SpatialAt(other, 2)[d])
	}
	if err := oc.EvaluateInto(s, om, got, Options{SkipValidate: true}); err != nil {
		t.Fatal(err)
	}
	if err := stageFinish(c, s, m, got, Options{SkipValidate: true}, 2); err != nil {
		t.Fatal(err)
	}
	if got.TotalPJ != want.TotalPJ {
		t.Fatalf("cross-engine scratch diverged: %g vs %g", got.TotalPJ, want.TotalPJ)
	}
}

// TestStageSpatialReuseMatchesFresh is the spatial-reuse equivalence
// property: a long chain of Stage calls through one scratch — candidates
// that keep the previous spatial configuration and redraw only temporal
// factors and permutations (sfShared = n), mixed with full and partial
// spatial changes, shared outer prefixes, pruned candidates, a failed
// Stage and engine switches that resize the buffers — yields, bit for bit,
// the bound LowerBound computes and the result EvaluateInto computes on a
// fresh scratch.
func TestStageSpatialReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	spatialReused := 0
	for archTrial := 0; archTrial < 12; archTrial++ {
		a, other := photonicArch(t, rng), randArch(t, rng)
		if archTrial%2 == 1 {
			a, other = other, a
		}
		l := workload.NewConv("chain", 1, 8, 6, 6, 6, 3, 3, 1, 1)
		c, err := Compile(a, &l)
		if err != nil {
			t.Fatal(err)
		}
		oc, err := Compile(other, &l)
		if err != nil {
			t.Fatal(err)
		}
		n := a.NumLevels()
		s := &Scratch{} // zero value: the first Stage sizes it
		opts := Options{SkipValidate: true, FullLedger: true}
		got, want := &Result{}, &Result{}
		var prev *mapping.Mapping
		for step := 0; step < 120; step++ {
			kind := rng.Intn(10)
			if prev == nil {
				kind = 0
			}
			var m *mapping.Mapping
			shared, sfShared := 0, 0
			switch {
			case kind == 0: // fresh spatial configuration
				m = randSearchStyleMapping(rng, a, &l)
			case kind == 1: // spatial change from level sfShared inward
				sfShared = rng.Intn(n)
				m = prev.Clone()
				drawSpatial(rng, a, m, sfShared)
				drawTemporal(rng, a, &l, m)
			case kind == 2: // identical outer prefix, fresh inner levels
				shared = 1 + rng.Intn(n)
				sfShared = shared
				m = prev.Clone()
				fresh := randSearchStyleMapping(rng, a, &l)
				copy(m.Levels[shared:], fresh.Levels[shared:])
			case kind == 3: // engine switch: the guard must drop the claim
				om := randSearchStyleMapping(rng, other, &l)
				if om.Validate(other, &l) == nil {
					if _, err := oc.Stage(s, om, opts, 0, 0, math.Inf(1)); err != nil {
						t.Fatal(err)
					}
				}
				fallthrough
			default: // same spatial assignment, new temporal loops
				sfShared = n
				m = prev.Clone()
				drawTemporal(rng, a, &l, m)
			}
			if m.Validate(a, &l) != nil {
				continue
			}
			if kind == 4 {
				// A Stage that fails validation leaves the baseline alone.
				bad := m.Clone()
				bad.Levels[0].Perm[0] = bad.Levels[0].Perm[1]
				if _, err := c.Stage(s, bad, Options{}, n, n, math.Inf(1)); err == nil {
					t.Fatal("Stage accepted an invalid mapping")
				}
			}
			bound, err := c.Stage(s, m, opts, shared, sfShared, math.Inf(1))
			if err != nil {
				t.Fatal(err)
			}
			fresh := c.Engine().NewScratch()
			if wantB := c.LowerBound(fresh, m, opts); math.Float64bits(bound.EnergyPJ) != math.Float64bits(wantB.EnergyPJ) ||
				math.Float64bits(bound.Cycles) != math.Float64bits(wantB.Cycles) {
				t.Fatalf("arch %d step %d (kind %d, shared %d, sfShared %d): staged bound %+v, fresh %+v",
					archTrial, step, kind, shared, sfShared, bound, wantB)
			}
			if sfShared == n {
				spatialReused++
			}
			prev = m
			if kind == 5 {
				continue // pruned: the next Stage builds on an unfinished one
			}
			errGot := c.FinishStaged(s, got, opts)
			errWant := c.EvaluateInto(fresh, m, want, opts)
			if (errGot == nil) != (errWant == nil) {
				t.Fatalf("arch %d step %d: staged err %v, fresh err %v", archTrial, step, errGot, errWant)
			}
			if errWant == nil && !reflect.DeepEqual(got, want) {
				t.Fatalf("arch %d step %d (kind %d, shared %d, sfShared %d): staged result diverged:\n%+v\n%+v",
					archTrial, step, kind, shared, sfShared, got, want)
			}
		}
	}
	if spatialReused < 300 {
		t.Fatalf("only %d stages reused the whole spatial configuration", spatialReused)
	}
}
