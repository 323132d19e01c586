package photoloop_test

// One benchmark per figure of the paper's evaluation section — running a
// benchmark regenerates the corresponding experiment — plus microbenchmarks
// of the analytical engine and mapper underneath them. Benchmark budgets
// are reduced relative to the CLI defaults so `go test -bench=.` completes
// quickly; the claims bands still hold at these budgets (see
// internal/exp tests).

import (
	"math"
	"testing"

	"photoloop"
)

var benchCfg = photoloop.ExperimentConfig{Budget: 200, Seed: 1}

// BenchmarkFig2EnergyBreakdown regenerates the Fig. 2 energy validation:
// modeled vs reported best-case pJ/MAC across three scaling projections.
func BenchmarkFig2EnergyBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := photoloop.Fig2(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Rows) != 6 {
			b.Fatalf("rows = %d", len(r.Rows))
		}
	}
}

// BenchmarkFig3Throughput regenerates the Fig. 3 throughput comparison for
// VGG16 and AlexNet (24 layer searches).
func BenchmarkFig3Throughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := photoloop.Fig3(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Rows) != 2 {
			b.Fatalf("rows = %d", len(r.Rows))
		}
	}
}

// BenchmarkFig4MemoryExploration regenerates the Fig. 4 full-system study:
// ResNet18 x {conservative, aggressive} x {batching, fusion}.
func BenchmarkFig4MemoryExploration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := photoloop.Fig4(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Rows) != 8 {
			b.Fatalf("rows = %d", len(r.Rows))
		}
	}
}

// BenchmarkFig5ArchExploration regenerates the Fig. 5 reuse exploration:
// ResNet18 on 18 architecture variants.
func BenchmarkFig5ArchExploration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := photoloop.Fig5(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Rows) != 18 {
			b.Fatalf("rows = %d", len(r.Rows))
		}
	}
}

// BenchmarkEvaluate measures one analytical evaluation of the mapper's
// inner loop: Albireo, one ResNet18 layer, canonical mapping, on the
// compiled allocation-free fast path (aggregate energy, no itemized
// ledger) — the configuration mapper search actually runs in.
func BenchmarkEvaluate(b *testing.B) {
	a, err := photoloop.Albireo(photoloop.Aggressive).Build()
	if err != nil {
		b.Fatal(err)
	}
	layer := photoloop.NewConv("l", 1, 128, 128, 28, 28, 3, 3, 1, 1)
	seeds := photoloop.AlbireoCanonicalMappings(a, &layer)
	if len(seeds) == 0 {
		b.Fatal("no canonical mapping")
	}
	m := seeds[0]
	c, err := photoloop.Compile(a, &layer)
	if err != nil {
		b.Fatal(err)
	}
	scratch := c.Engine().NewScratch()
	res := &photoloop.Result{}
	opts := photoloop.EvalOptions{SkipValidate: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.EvaluateInto(scratch, m, res, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateFullLedger measures the compiled path with the
// itemized energy ledger (the debug/reporting mode).
func BenchmarkEvaluateFullLedger(b *testing.B) {
	a, err := photoloop.Albireo(photoloop.Aggressive).Build()
	if err != nil {
		b.Fatal(err)
	}
	layer := photoloop.NewConv("l", 1, 128, 128, 28, 28, 3, 3, 1, 1)
	seeds := photoloop.AlbireoCanonicalMappings(a, &layer)
	if len(seeds) == 0 {
		b.Fatal("no canonical mapping")
	}
	m := seeds[0]
	c, err := photoloop.Compile(a, &layer)
	if err != nil {
		b.Fatal(err)
	}
	scratch := c.Engine().NewScratch()
	res := &photoloop.Result{}
	opts := photoloop.EvalOptions{SkipValidate: true, FullLedger: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.EvaluateInto(scratch, m, res, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateOneShot measures the uncompiled convenience entry
// point, which recompiles the (arch, layer) pair on every call.
func BenchmarkEvaluateOneShot(b *testing.B) {
	a, err := photoloop.Albireo(photoloop.Aggressive).Build()
	if err != nil {
		b.Fatal(err)
	}
	layer := photoloop.NewConv("l", 1, 128, 128, 28, 28, 3, 3, 1, 1)
	seeds := photoloop.AlbireoCanonicalMappings(a, &layer)
	if len(seeds) == 0 {
		b.Fatal("no canonical mapping")
	}
	m := seeds[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := photoloop.Evaluate(a, &layer, m, photoloop.EvalOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLowerBound measures the admissible lower bound the search
// prunes with — the cost of rejecting a candidate without evaluating it.
func BenchmarkLowerBound(b *testing.B) {
	a, err := photoloop.Albireo(photoloop.Aggressive).Build()
	if err != nil {
		b.Fatal(err)
	}
	layer := photoloop.NewConv("l", 1, 128, 128, 28, 28, 3, 3, 1, 1)
	seeds := photoloop.AlbireoCanonicalMappings(a, &layer)
	if len(seeds) == 0 {
		b.Fatal("no canonical mapping")
	}
	m := seeds[0]
	c, err := photoloop.Compile(a, &layer)
	if err != nil {
		b.Fatal(err)
	}
	scratch := c.Engine().NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if bd := c.LowerBound(scratch, m, photoloop.EvalOptions{}); bd.EnergyPJ <= 0 {
			b.Fatal("degenerate bound")
		}
	}
}

// BenchmarkEvaluateStagedChain measures the mapper's per-candidate Stage
// call at its most common: a chain of candidates that keep one spatial
// assignment and differ only in their temporal loops (each moves a factor
// of the canonical mapping out to DRAM), staged with the whole spatial
// configuration declared shared and bounded exactly.
func BenchmarkEvaluateStagedChain(b *testing.B) {
	a, err := photoloop.Albireo(photoloop.Aggressive).Build()
	if err != nil {
		b.Fatal(err)
	}
	layer := photoloop.NewConv("l", 1, 128, 128, 28, 28, 3, 3, 1, 1)
	seeds := photoloop.AlbireoCanonicalMappings(a, &layer)
	if len(seeds) == 0 {
		b.Fatal("no canonical mapping")
	}
	chain := []*photoloop.Mapping{seeds[0]}
	for i := 1; i < a.NumLevels(); i++ {
		for d, t := range seeds[0].Levels[i].Temporal {
			for f := 2; f <= t; f++ {
				if t%f != 0 {
					continue
				}
				m := seeds[0].Clone()
				m.Levels[i].Temporal[d] /= f
				m.Levels[0].Temporal[d] *= f
				if m.Validate(a, &layer) == nil {
					chain = append(chain, m)
				}
			}
		}
	}
	if len(chain) < 2 {
		b.Fatal("no temporal variants of the canonical mapping")
	}
	c, err := photoloop.Compile(a, &layer)
	if err != nil {
		b.Fatal(err)
	}
	scratch := c.Engine().NewScratch()
	opts := photoloop.EvalOptions{SkipValidate: true}
	n := a.NumLevels()
	if _, err := c.Stage(scratch, chain[0], opts, 0, 0, math.Inf(1)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Stage(scratch, chain[i%len(chain)], opts, 0, n, math.Inf(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMapperSearch measures a full mapping search for one layer.
func BenchmarkMapperSearch(b *testing.B) {
	a, err := photoloop.Albireo(photoloop.Aggressive).Build()
	if err != nil {
		b.Fatal(err)
	}
	layer := photoloop.NewConv("l", 1, 128, 128, 28, 28, 3, 3, 1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := photoloop.Search(a, &layer, photoloop.SearchOptions{Budget: 500, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMapperSearchSeeded measures the search in its production
// configuration — canonical schedules as seeds, the setup every figure
// harness runs — and reports the fraction of candidates the admissible
// lower bound pruned.
func BenchmarkMapperSearchSeeded(b *testing.B) {
	a, err := photoloop.Albireo(photoloop.Aggressive).Build()
	if err != nil {
		b.Fatal(err)
	}
	layer := photoloop.NewConv("l", 1, 128, 128, 28, 28, 3, 3, 1, 1)
	seeds := photoloop.SeedList(photoloop.AlbireoCanonicalMappings(a, &layer))
	var stats photoloop.SearchStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		best, err := photoloop.Search(a, &layer, photoloop.SearchOptions{Budget: 500, Seed: 1, Seeds: seeds})
		if err != nil {
			b.Fatal(err)
		}
		stats = best.Stats
	}
	b.ReportMetric(stats.PrunedFraction(), "pruned-frac")
}

// BenchmarkCanonicalMappings measures generation of the architect-intended
// schedule variants.
func BenchmarkCanonicalMappings(b *testing.B) {
	a, err := photoloop.Albireo(photoloop.Conservative).Build()
	if err != nil {
		b.Fatal(err)
	}
	layer := photoloop.NewConv("l", 8, 512, 256, 14, 14, 3, 3, 1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := photoloop.AlbireoCanonicalMappings(a, &layer); len(got) == 0 {
			b.Fatal("no mappings")
		}
	}
}

// BenchmarkNetworkEval measures a whole-network evaluation as a one-point
// sweep (ResNet18, batched and fused — the heaviest Fig. 4 configuration).
func BenchmarkNetworkEval(b *testing.B) {
	sp := photoloop.SweepSpec{
		Base:      photoloop.SweepBase{Albireo: &photoloop.SweepAlbireoBase{Scaling: "aggressive"}},
		Workloads: []photoloop.SweepWorkload{{Network: "resnet18", Batch: 8, Fused: true}},
		Budget:    200,
		Seed:      1,
	}
	for i := 0; i < b.N; i++ {
		if _, err := photoloop.Sweep(sp, photoloop.SweepOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAlbireoBuild measures architecture construction + validation.
func BenchmarkAlbireoBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := photoloop.Albireo(photoloop.Moderate).Build(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblations regenerates the modeling-mechanism ablation study.
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := photoloop.Ablations(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Rows) != 4 {
			b.Fatalf("rows = %d", len(r.Rows))
		}
	}
}
