package photoloop_test

// Benchmark-guard tests for the compiled evaluation engine: the fast path
// must produce results identical to the one-shot Evaluate across every
// canonical Albireo mapping and every scaling projection, and must not
// allocate.

import (
	"math"
	"reflect"
	"testing"

	"photoloop"
)

// equivalenceLayers spans the shapes the figures evaluate: an unstrided
// convolution that fits the array, a strided early layer, a deep
// small-feature layer, and a fully-connected layer.
func equivalenceLayers() []photoloop.Layer {
	return []photoloop.Layer{
		photoloop.NewConv("bestcase", 1, 96, 64, 32, 32, 3, 3, 1, 1),
		photoloop.NewConv("strided", 1, 64, 3, 112, 112, 7, 7, 2, 3),
		photoloop.NewConv("deep", 1, 256, 256, 14, 14, 3, 3, 1, 1),
		photoloop.NewFC("fc", 1, 1000, 512),
	}
}

// TestCompiledMatchesEvaluate checks that EvaluateInto — with and without
// the full ledger — reproduces Evaluate exactly on every canonical Albireo
// mapping across all three scaling projections.
func TestCompiledMatchesEvaluate(t *testing.T) {
	for _, scaling := range []photoloop.AlbireoScaling{
		photoloop.Conservative, photoloop.Moderate, photoloop.Aggressive,
	} {
		a, err := photoloop.Albireo(scaling).Build()
		if err != nil {
			t.Fatal(err)
		}
		eng, err := photoloop.NewEngine(a)
		if err != nil {
			t.Fatal(err)
		}
		scratch := eng.NewScratch()
		for _, layer := range equivalenceLayers() {
			layer := layer
			c, err := eng.Compile(&layer)
			if err != nil {
				t.Fatal(err)
			}
			mappings := photoloop.AlbireoCanonicalMappings(a, &layer)
			if len(mappings) == 0 {
				t.Fatalf("%v/%s: no canonical mappings", scaling, layer.Name)
			}
			for mi, m := range mappings {
				ref, err := photoloop.Evaluate(a, &layer, m, photoloop.EvalOptions{})
				if err != nil {
					t.Fatalf("%v/%s[%d]: Evaluate: %v", scaling, layer.Name, mi, err)
				}

				// Fast path: everything but the itemized ledger.
				fast := &photoloop.Result{}
				err = c.EvaluateInto(scratch, m, fast, photoloop.EvalOptions{SkipValidate: true})
				if err != nil {
					t.Fatalf("%v/%s[%d]: EvaluateInto: %v", scaling, layer.Name, mi, err)
				}
				compareResults(t, ref, fast, false)

				// Full-ledger path: ledger included, still identical.
				full := &photoloop.Result{}
				err = c.EvaluateInto(scratch, m, full, photoloop.EvalOptions{SkipValidate: true, FullLedger: true})
				if err != nil {
					t.Fatalf("%v/%s[%d]: EvaluateInto full: %v", scaling, layer.Name, mi, err)
				}
				compareResults(t, ref, full, true)
			}
		}
	}
}

// compareResults requires got to be bit-identical to want in every scalar
// field and the usage table; withLedger additionally requires the itemized
// energy ledger to match.
func compareResults(t *testing.T, want, got *photoloop.Result, withLedger bool) {
	t.Helper()
	scalar := func(name string, w, g float64) {
		t.Helper()
		if w != g && !(math.IsNaN(w) && math.IsNaN(g)) {
			t.Errorf("%s: %s = %v, want %v", want.Layer, name, g, w)
		}
	}
	if got.Layer != want.Layer {
		t.Errorf("Layer = %q, want %q", got.Layer, want.Layer)
	}
	if got.MACs != want.MACs || got.PaddedMACs != want.PaddedMACs || got.ComputeCycles != want.ComputeCycles {
		t.Errorf("%s: counters (%d %d %d), want (%d %d %d)", want.Layer,
			got.MACs, got.PaddedMACs, got.ComputeCycles,
			want.MACs, want.PaddedMACs, want.ComputeCycles)
	}
	scalar("Cycles", want.Cycles, got.Cycles)
	scalar("Utilization", want.Utilization, got.Utilization)
	scalar("MACsPerCycle", want.MACsPerCycle, got.MACsPerCycle)
	scalar("TotalPJ", want.TotalPJ, got.TotalPJ)
	scalar("AreaUM2", want.AreaUM2, got.AreaUM2)
	if got.BottleneckLevel != want.BottleneckLevel {
		t.Errorf("%s: BottleneckLevel = %q, want %q", want.Layer, got.BottleneckLevel, want.BottleneckLevel)
	}
	if !reflect.DeepEqual(got.Usage, want.Usage) {
		t.Errorf("%s: usage tables differ", want.Layer)
	}
	if withLedger {
		if !reflect.DeepEqual(got.Energy, want.Energy) {
			t.Errorf("%s: energy ledgers differ (%d vs %d items)", want.Layer, len(got.Energy), len(want.Energy))
		}
	} else if len(got.Energy) != 0 {
		t.Errorf("%s: fast path produced %d ledger items, want none", want.Layer, len(got.Energy))
	}
}

// TestLedgerTensorAttribution pins the ledger contract both evaluation
// tiers share: storage-access and converter charges carry the operand they
// arose for; only per-MAC compute (and static) charges have no tensor.
// The equivalence test cannot catch a shared regression here because both
// tiers run on the same compiled tables.
func TestLedgerTensorAttribution(t *testing.T) {
	a, err := photoloop.Albireo(photoloop.Conservative).Build()
	if err != nil {
		t.Fatal(err)
	}
	layer := photoloop.NewConv("l", 1, 96, 64, 32, 32, 3, 3, 1, 1)
	mappings := photoloop.AlbireoCanonicalMappings(a, &layer)
	if len(mappings) == 0 {
		t.Fatal("no canonical mappings")
	}
	res, err := photoloop.Evaluate(a, &layer, mappings[0], photoloop.EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Energy {
		e := &res.Energy[i]
		if e.Level == "compute" || e.Level == "static" {
			if e.Tensor != "" {
				t.Errorf("%s/%s: compute/static charge has tensor %q", e.Level, e.Component, e.Tensor)
			}
			continue
		}
		if e.Tensor == "" {
			t.Errorf("%s/%s/%s: storage charge lost its tensor attribution", e.Level, e.Component, e.Action)
		}
	}
	if pj := res.EnergyOf("dram", photoloop.Weights.String()); pj <= 0 {
		t.Errorf("EnergyOf(dram, Weights) = %g, want > 0", pj)
	}
}

// TestEvaluateIntoZeroAllocs guards the fast path's allocation-free
// contract: after warmup, repeated evaluations into reused scratch and
// result buffers must not allocate at all.
func TestEvaluateIntoZeroAllocs(t *testing.T) {
	a, err := photoloop.Albireo(photoloop.Aggressive).Build()
	if err != nil {
		t.Fatal(err)
	}
	layer := photoloop.NewConv("l", 1, 128, 128, 28, 28, 3, 3, 1, 1)
	mappings := photoloop.AlbireoCanonicalMappings(a, &layer)
	if len(mappings) == 0 {
		t.Fatal("no canonical mappings")
	}
	c, err := photoloop.Compile(a, &layer)
	if err != nil {
		t.Fatal(err)
	}
	scratch := &photoloop.EvalScratch{} // zero value must self-size
	res := &photoloop.Result{}
	opts := photoloop.EvalOptions{SkipValidate: true}
	allocs := testing.AllocsPerRun(200, func() {
		for _, m := range mappings {
			if err := c.EvaluateInto(scratch, m, res, opts); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("EvaluateInto(opts=%+v) allocated %.1f times per run, want 0", opts, allocs)
	}
}

// TestSessionSearchMatchesOneShot checks that a shared mapper session
// returns the same search outcome as the one-shot Search entry point.
func TestSessionSearchMatchesOneShot(t *testing.T) {
	a, err := photoloop.Albireo(photoloop.Moderate).Build()
	if err != nil {
		t.Fatal(err)
	}
	layer := photoloop.NewConv("l", 1, 64, 64, 14, 14, 3, 3, 1, 1)
	opts := photoloop.SearchOptions{Budget: 300, Seed: 7, Workers: 2}
	one, err := photoloop.Search(a, &layer, opts)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := photoloop.NewMapperSession(a)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := sess.Search(&layer, opts)
	if err != nil {
		t.Fatal(err)
	}
	if one.Result.TotalPJ != shared.Result.TotalPJ || one.Mapping.String() != shared.Mapping.String() {
		t.Errorf("session search diverged: %g pJ vs %g pJ", shared.Result.TotalPJ, one.Result.TotalPJ)
	}
}

// TestLowerBoundAndPartialZeroAllocs extends the allocation-free contract
// to the search accelerators: the admissible lower bound and the
// shared-prefix delta evaluation must not allocate on a NewScratch.
func TestLowerBoundAndPartialZeroAllocs(t *testing.T) {
	a, err := photoloop.Albireo(photoloop.Aggressive).Build()
	if err != nil {
		t.Fatal(err)
	}
	layer := photoloop.NewConv("l", 1, 128, 128, 28, 28, 3, 3, 1, 1)
	mappings := photoloop.AlbireoCanonicalMappings(a, &layer)
	if len(mappings) < 2 {
		t.Fatal("need at least two canonical mappings")
	}
	c, err := photoloop.Compile(a, &layer)
	if err != nil {
		t.Fatal(err)
	}
	scratch := c.Engine().NewScratch()
	res := &photoloop.Result{}
	opts := photoloop.EvalOptions{SkipValidate: true}
	if allocs := testing.AllocsPerRun(200, func() {
		for _, m := range mappings {
			if b := c.LowerBound(scratch, m, opts); b.EnergyPJ <= 0 || b.Cycles <= 0 {
				t.Fatal("degenerate bound")
			}
		}
	}); allocs != 0 {
		t.Errorf("LowerBound allocated %.1f times per run, want 0", allocs)
	}
	// Delta evaluation: consecutive canonical mappings share outer levels.
	if allocs := testing.AllocsPerRun(200, func() {
		for i, m := range mappings {
			shared := 0
			if i > 0 {
				shared = 1
			}
			if _, err := c.Stage(scratch, m, opts, shared, shared, math.Inf(1)); err != nil {
				t.Fatal(err)
			}
			if err := c.FinishStaged(scratch, res, opts); err != nil {
				t.Fatal(err)
			}
		}
	}); allocs != 0 {
		t.Errorf("Stage+FinishStaged allocated %.1f times per run, want 0", allocs)
	}
}

// TestLowerBoundAdmissibleOnAlbireo pins the admissibility property on the
// real paper architecture across scalings: the bound never exceeds the
// full evaluation for any canonical mapping.
func TestLowerBoundAdmissibleOnAlbireo(t *testing.T) {
	for _, scaling := range []photoloop.AlbireoScaling{
		photoloop.Conservative, photoloop.Moderate, photoloop.Aggressive,
	} {
		a, err := photoloop.Albireo(scaling).Build()
		if err != nil {
			t.Fatal(err)
		}
		for _, layer := range equivalenceLayers() {
			layer := layer
			c, err := photoloop.Compile(a, &layer)
			if err != nil {
				t.Fatal(err)
			}
			scratch := c.Engine().NewScratch()
			res := &photoloop.Result{}
			for _, m := range photoloop.AlbireoCanonicalMappings(a, &layer) {
				opts := photoloop.EvalOptions{SkipValidate: true}
				if err := c.EvaluateInto(scratch, m, res, opts); err != nil {
					t.Fatal(err)
				}
				b := c.LowerBound(scratch, m, opts)
				if b.EnergyPJ > res.TotalPJ {
					t.Errorf("%v/%s: bound %.9g > evaluation %.9g pJ", scaling, layer.Name, b.EnergyPJ, res.TotalPJ)
				}
				if b.Cycles > res.Cycles {
					t.Errorf("%v/%s: bound %g > evaluation %g cycles", scaling, layer.Name, b.Cycles, res.Cycles)
				}
			}
		}
	}
}
