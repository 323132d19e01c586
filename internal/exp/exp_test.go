package exp

import (
	"bytes"
	"strings"
	"testing"

	"photoloop/internal/albireo"
	"photoloop/internal/arch"
	"photoloop/internal/mapper"
	"photoloop/internal/model"
	"photoloop/internal/workload"
)

// testCfg keeps mapper budgets small so the full figure suite runs in
// seconds; the claims bands are wide enough to hold at these budgets (the
// canonical seeds do most of the work).
var testCfg = Config{Budget: 300, Seed: 1}

func TestFig2ReproducesReportedBreakdown(t *testing.T) {
	r, err := Fig2(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 { // 3 scalings x (model, reported)
		t.Fatalf("got %d rows", len(r.Rows))
	}
	claims := albireo.Claims()
	if r.AvgAbsErrPct > 100*claims.Fig2MaxAvgError {
		t.Errorf("avg energy error %.2f%% exceeds band %.0f%%", r.AvgAbsErrPct, 100*claims.Fig2MaxAvgError)
	}
	if r.Utilization < 0.999 {
		t.Errorf("best-case layer utilization %.3f, want 1.0", r.Utilization)
	}
	// Each model bar must be within 20% of its reported counterpart per
	// bin (the paper's bars visually coincide).
	for i := 0; i+1 < len(r.Rows); i += 2 {
		model, rep := r.Rows[i], r.Rows[i+1]
		if model.Kind != "Model" || rep.Kind != "Reported" {
			t.Fatalf("row order wrong: %s %s", model.Kind, rep.Kind)
		}
		for bin, repV := range rep.Bins {
			mv := model.Bins[bin]
			if repV > 0 && (mv < 0.8*repV || mv > 1.25*repV) {
				t.Errorf("%s %s: model %.3f vs reported %.3f", model.Scaling, bin, mv, repV)
			}
		}
	}
	// Totals decrease with scaling aggressiveness.
	if !(r.Rows[0].Total > r.Rows[2].Total && r.Rows[2].Total > r.Rows[4].Total) {
		t.Error("model totals not monotone across scalings")
	}
}

func TestFig3CapturesUnderutilization(t *testing.T) {
	r, err := Fig3(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("got %d rows", len(r.Rows))
	}
	claims := albireo.Claims()
	byName := map[string]Fig3Row{}
	for _, row := range r.Rows {
		byName[row.Network] = row
		// Modeled must sit below reported (underutilization can only
		// reduce throughput) and above zero.
		if row.Modeled <= 0 || row.Modeled > row.Reported {
			t.Errorf("%s: modeled %.0f vs reported %.0f", row.Network, row.Modeled, row.Reported)
		}
		if row.Ideal != 6912 {
			t.Errorf("%s: ideal = %g, want 6912", row.Network, row.Ideal)
		}
	}
	vgg, alex := byName["vgg16"], byName["alexnet"]
	if vgg.Modeled/vgg.Ideal < claims.Fig3VGGMinUtil {
		t.Errorf("VGG modeled/ideal %.2f below band %.2f", vgg.Modeled/vgg.Ideal, claims.Fig3VGGMinUtil)
	}
	if alex.Modeled/alex.Ideal > claims.Fig3AlexMaxUtil {
		t.Errorf("AlexNet modeled/ideal %.2f above band %.2f", alex.Modeled/alex.Ideal, claims.Fig3AlexMaxUtil)
	}
	// AlexNet must be hit harder than VGG16 (the paper's point).
	if alex.Modeled/alex.Ideal >= vgg.Modeled/vgg.Ideal {
		t.Error("AlexNet should be degraded more than VGG16")
	}
	// The strided first AlexNet layer must show spatial underutilization.
	for _, lt := range alex.Layers {
		if lt.Layer == "conv1" && lt.Utilization > 0.9 {
			t.Errorf("AlexNet conv1 utilization %.2f, expected < 0.9 (11x11 stride-4)", lt.Utilization)
		}
	}
}

func TestFig4FullSystem(t *testing.T) {
	r, err := Fig4(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 8 {
		t.Fatalf("got %d rows", len(r.Rows))
	}
	claims := albireo.Claims()
	if r.AggressiveBaselineDRAMShare < claims.Fig4AggressiveDRAMShareLo ||
		r.AggressiveBaselineDRAMShare > claims.Fig4AggressiveDRAMShareHi {
		t.Errorf("aggressive DRAM share %.2f outside band", r.AggressiveBaselineDRAMShare)
	}
	if r.ConservativeBaselineDRAMShare > claims.Fig4ConservativeDRAMShareHi {
		t.Errorf("conservative DRAM share %.2f above band", r.ConservativeBaselineDRAMShare)
	}
	if r.ConservativeBaselineDRAMShare >= r.AggressiveBaselineDRAMShare {
		t.Error("DRAM share should grow with scaling aggressiveness")
	}
	if r.AggressiveCombinedReduction < claims.Fig4CombinedReductionLo {
		t.Errorf("combined reduction %.2f below band %.2f", r.AggressiveCombinedReduction, claims.Fig4CombinedReductionLo)
	}
	for _, row := range r.Rows {
		if row.PaperConfig && row.Normalized != 1.0 {
			t.Errorf("baseline row should normalize to 1.0, got %g", row.Normalized)
		}
		if !row.PaperConfig && row.Normalized > 1.05 {
			t.Errorf("%s batched=%v fused=%v worse than baseline: %.3f",
				row.Scaling, row.Batched, row.Fused, row.Normalized)
		}
	}
}

func TestFig5ReuseExploration(t *testing.T) {
	r, err := Fig5(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 18 { // 2 groups x 3 OR x 3 IR
		t.Fatalf("got %d rows", len(r.Rows))
	}
	claims := albireo.Claims()
	if r.BestConverterReduction < claims.Fig5ConverterReductionLo {
		t.Errorf("converter reduction %.2f below band", r.BestConverterReduction)
	}
	if r.BestAcceleratorReduction < claims.Fig5AcceleratorReductionLo {
		t.Errorf("accelerator reduction %.2f below band", r.BestAcceleratorReduction)
	}
	var baseline *Fig5Row
	for i := range r.Rows {
		if r.Rows[i].Baseline {
			baseline = &r.Rows[i]
		}
	}
	if baseline == nil {
		t.Fatal("no baseline row")
	}
	// Increasing IR at fixed OR reduces input-conversion energy.
	find := func(wr bool, or, ir int) *Fig5Row {
		for i := range r.Rows {
			if r.Rows[i].WeightReuse == wr && r.Rows[i].OR == or && r.Rows[i].IR == ir {
				return &r.Rows[i]
			}
		}
		t.Fatalf("missing row wr=%v or=%d ir=%d", wr, or, ir)
		return nil
	}
	ir9 := find(false, 3, 9)
	ir45 := find(false, 3, 45)
	if ir45.Bins[albireo.RoleInputConv] >= ir9.Bins[albireo.RoleInputConv] {
		t.Errorf("IR=45 input conversion %.4f not below IR=9 %.4f",
			ir45.Bins[albireo.RoleInputConv], ir9.Bins[albireo.RoleInputConv])
	}
	// Increasing OR at fixed IR reduces output-conversion energy.
	or3 := find(false, 3, 27)
	or15 := find(false, 15, 27)
	if or15.Bins[albireo.RoleOutputConv] >= or3.Bins[albireo.RoleOutputConv] {
		t.Errorf("OR=15 output conversion %.4f not below OR=3 %.4f",
			or15.Bins[albireo.RoleOutputConv], or3.Bins[albireo.RoleOutputConv])
	}
	// The weight-reuse group (at matched high reuse) cuts total
	// conversion energy versus the original group. The comparison is on
	// the summed converter bins, not the weight-conversion bin alone:
	// each group's row carries its own best-found mapping, and on the
	// reuse topology the mapper may legitimately spend cheap weight
	// refetches to save output conversions — the per-bin split is a
	// property of the chosen schedule, the total is the topology's.
	owr := find(false, 9, 27)
	wwr := find(true, 9, 27)
	if wwr.ConverterPJPerMAC >= owr.ConverterPJPerMAC {
		t.Errorf("weight reuse did not cut conversion energy: %.4f vs %.4f",
			wwr.ConverterPJPerMAC, owr.ConverterPJPerMAC)
	}
}

// directLayers searches every layer of net from scratch on a, seeded with
// the canonical Albireo mappings, with no result cache and no shape dedupe
// — the per-layer reference the sweep's network loop must reproduce.
func directLayers(t *testing.T, a *arch.Arch, net workload.Network, opts mapper.Options) []*mapper.Best {
	t.Helper()
	bests := make([]*mapper.Best, len(net.Layers))
	for i := range net.Layers {
		layer := &net.Layers[i]
		o := opts
		o.Seeds = mapper.SeedList(albireo.CanonicalMappings(a, layer))
		best, err := mapper.Search(a, layer, o)
		if err != nil {
			t.Fatalf("layer %s: %v", layer.Name, err)
		}
		bests[i] = best
	}
	return bests
}

// directNetwork sums directLayers on cfg's built arch, in layer order, into
// one whole-network result holding their concatenated energy ledger.
func directNetwork(t *testing.T, cfg albireo.Config, net workload.Network, opts mapper.Options) model.Result {
	t.Helper()
	a, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	total := model.Result{Layer: net.Name}
	for _, best := range directLayers(t, a, net, opts) {
		total.MACs += best.Result.MACs
		total.Energy = append(total.Energy, best.Result.Energy...)
	}
	return total
}

// TestFig3MatchesDirectSearch pins Fig. 3, which runs through the sweep
// (shared cache, repeated shapes searched once per point), to a direct
// delay search of every layer: each layer's throughput bit for bit, under
// its own name — VGG16 repeats shapes, so a deduped layer must not take its
// representative's name.
func TestFig3MatchesDirectSearch(t *testing.T) {
	r, err := Fig3(Config{Budget: 120, Seed: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	a, err := albireo.Default(albireo.Conservative).Build()
	if err != nil {
		t.Fatal(err)
	}
	opts := mapper.Options{Objective: mapper.MinDelay, Budget: 120, Seed: 1, Workers: 2}
	for i, name := range []string{"vgg16", "alexnet"} {
		net, err := workload.ByName(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		row := r.Rows[i]
		if row.Network != name || len(row.Layers) != len(net.Layers) {
			t.Fatalf("row %d is %s with %d layers, want %s with %d", i, row.Network, len(row.Layers), name, len(net.Layers))
		}
		shapes := map[uint64]bool{}
		var macs int64
		var cycles float64
		for j, best := range directLayers(t, a, net, opts) {
			res := best.Result
			shapes[net.Layers[j].ShapeFingerprint()] = true
			want := LayerThroughput{
				Layer:               net.Layers[j].Name,
				Utilization:         res.Utilization,
				MACsPerCycle:        res.MACsPerCycle,
				ComputeMACsPerCycle: float64(res.MACs) / float64(res.ComputeCycles),
				Bottleneck:          res.BottleneckLevel,
			}
			if row.Layers[j] != want {
				t.Errorf("%s layer %d diverged:\n got %+v\nwant %+v", name, j, row.Layers[j], want)
			}
			macs += res.MACs
			cycles += res.Cycles
		}
		if want := float64(macs) / cycles; row.TotalOverCycles != want {
			t.Errorf("%s total/cycles %.12g, want %.12g", name, row.TotalOverCycles, want)
		}
		if name == "vgg16" && len(shapes) == len(net.Layers) {
			t.Error("vgg16 has no repeated layer shape; the dedupe path is not covered")
		}
	}
}

// TestFig5MatchesDirectExploration is the sweep-equivalence anchor of the
// acceptance criteria: Fig5 now shards its 18-variant grid across the
// concurrent sweep subsystem (with the fingerprint dedupe cache engaged),
// and must reproduce the serial exploration — every layer of every
// variant searched directly (directNetwork), no cache — bit-identically.
func TestFig5MatchesDirectExploration(t *testing.T) {
	cfg := Config{Budget: 120, Seed: 1, Workers: 2}
	r, err := Fig5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	net := workload.ResNet18(1)
	i := 0
	for _, wr := range []bool{false, true} {
		for _, orLanes := range []int{1, 3, 5} {
			for _, outLanes := range []int{3, 9, 15} {
				c := albireo.Default(albireo.Aggressive)
				c.OutputLanes = outLanes
				c.ORLanes = orLanes
				c.WeightReuse = wr
				total := directNetwork(t, c, net,
					mapper.Options{Objective: mapper.MinEnergy, Budget: 120, Seed: 1, Workers: 2})
				row := r.Rows[i]
				if row.WeightReuse != wr || row.OR != c.OR() || row.IR != c.IR() {
					t.Fatalf("row %d is (%v, %d, %d), want (%v, %d, %d)",
						i, row.WeightReuse, row.OR, row.IR, wr, c.OR(), c.IR())
				}
				macs := float64(total.MACs)
				wantAccel := albireo.AcceleratorPJ(&total) / macs
				wantConv := albireo.ConverterPJ(&total) / macs
				if row.AccelPJPerMAC != wantAccel || row.ConverterPJPerMAC != wantConv {
					t.Errorf("row %d diverged: accel %.12g vs %.12g, conv %.12g vs %.12g",
						i, row.AccelPJPerMAC, wantAccel, row.ConverterPJPerMAC, wantConv)
				}
				for bin, pj := range albireo.RoleBreakdown(&total) {
					if bin == albireo.RoleDRAM {
						continue
					}
					if row.Bins[bin] != pj/macs {
						t.Errorf("row %d bin %s: %.12g vs %.12g", i, bin, row.Bins[bin], pj/macs)
					}
				}
				i++
			}
		}
	}
}

func TestRenderersProduceOutput(t *testing.T) {
	f2, err := Fig2(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f2.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Fig. 2", "conservative", "Reported", "Model"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig2 render missing %q", want)
		}
	}
	var csv bytes.Buffer
	headers, _, rows := f2.Table()
	if err := WriteCSV(&csv, headers, rows); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(csv.String(), "\n"); lines != 7 { // header + 6 rows
		t.Errorf("fig2 csv has %d lines", lines)
	}
}

// TestAllRenderersEndToEnd drives every figure's Render and CSV paths with
// small budgets, checking the textual output carries the headline facts.
func TestAllRenderersEndToEnd(t *testing.T) {
	f3, err := Fig3(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	var b3 bytes.Buffer
	if err := f3.Render(&b3); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Fig. 3", "vgg16", "alexnet", "MACs/cycle"} {
		if !strings.Contains(b3.String(), want) {
			t.Errorf("fig3 render missing %q", want)
		}
	}

	f4, err := Fig4(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	var b4 bytes.Buffer
	if err := f4.Render(&b4); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Fig. 4", "DRAM share", "Albireo paper config", "batching+fusion"} {
		if !strings.Contains(b4.String(), want) {
			t.Errorf("fig4 render missing %q", want)
		}
	}
	var c4 bytes.Buffer
	headers, _, rows := f4.Table()
	if err := WriteCSV(&c4, headers, rows); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(c4.String(), "\n"); lines != 9 { // header + 8 rows
		t.Errorf("fig4 csv has %d lines", lines)
	}

	f5, err := Fig5(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	var b5 bytes.Buffer
	if err := f5.Render(&b5); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Fig. 5", "More Weight Reuse", "converter-energy reduction"} {
		if !strings.Contains(b5.String(), want) {
			t.Errorf("fig5 render missing %q", want)
		}
	}

	abl, err := Ablations(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	var ba bytes.Buffer
	if err := abl.Render(&ba); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ba.String(), "Ablations") || !strings.Contains(ba.String(), "Ratio") {
		t.Error("ablation render incomplete")
	}
}
