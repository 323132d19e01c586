package sweep

import (
	"bytes"
	"strings"
	"testing"

	"photoloop/internal/albireo"
	"photoloop/internal/fidelity"
	"photoloop/internal/mapper"
	"photoloop/internal/presets"
	"photoloop/internal/workload"
)

// fidelitySweepSpec is the shared fixture: a two-variant albireo sweep,
// pinned seed/workers, per-layer outcomes on.
func fidelitySweepSpec(fid *fidelity.Spec) Spec {
	return Spec{
		Name: "fidelity-test",
		Base: Base{Albireo: &AlbireoBase{}},
		Axes: []Axis{
			{Param: "output_lanes", Values: []any{3, 9}},
		},
		Workloads:     []Workload{{Inline: tinyNet()}},
		Budget:        40,
		Seed:          1,
		SearchWorkers: 1,
		IncludeLayers: true,
		Fidelity:      fid,
	}
}

// stripFidelity zeroes every fidelity field of a result, so a
// fidelity-enabled run can be compared bit-for-bit against a disabled one.
func stripFidelity(res *Result) {
	for i := range res.Points {
		p := &res.Points[i]
		p.EffectiveBits, p.SNRDB, p.AccuracyLossPct = 0, 0, 0
		for j := range p.Layers {
			l := &p.Layers[j]
			l.EffectiveBits, l.SNRDB, l.AccuracyLossPct = 0, 0, 0
		}
	}
}

// TestFidelityOffBitIdentical is the tentpole's safety contract: the
// fidelity rollup is a pure post-pass, so enabling it must not move a
// single bit of the energy/delay/area results — and disabling it must
// leave no fidelity keys in the JSON at all.
func TestFidelityOffBitIdentical(t *testing.T) {
	off, err := Run(fidelitySweepSpec(nil), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	on, err := Run(fidelitySweepSpec(&fidelity.Spec{}), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	for i := range on.Points {
		p := &on.Points[i]
		if p.EffectiveBits <= 0 || p.SNRDB <= 0 || p.AccuracyLossPct < 0 {
			t.Fatalf("point %d: fidelity rollup missing or nonsensical: bits=%v snr=%v loss=%v",
				i, p.EffectiveBits, p.SNRDB, p.AccuracyLossPct)
		}
		for j := range p.Layers {
			if p.Layers[j].EffectiveBits <= 0 {
				t.Fatalf("point %d layer %d: no per-layer fidelity annotation", i, j)
			}
		}
	}

	var offJSON bytes.Buffer
	if err := off.WriteJSON(&offJSON); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"effective_bits", "snr_db", "accuracy_loss_pct"} {
		if strings.Contains(offJSON.String(), key) {
			t.Errorf("fidelity-off JSON leaks %q", key)
		}
	}

	stripFidelity(on)
	var onJSON bytes.Buffer
	if err := on.WriteJSON(&onJSON); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(offJSON.Bytes(), onJSON.Bytes()) {
		t.Fatalf("results differ beyond the fidelity fields:\noff: %s\non:  %s", offJSON.Bytes(), onJSON.Bytes())
	}
}

// TestFidelityCSVColumns: the sweep CSV always carries the three fidelity
// columns; they are empty with the rollup off and populated with it on.
func TestFidelityCSVColumns(t *testing.T) {
	on, err := Run(fidelitySweepSpec(&fidelity.Spec{}), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	header := strings.Join(on.CSVHeader(), ",")
	if !strings.Contains(header, "effective_bits,snr_db,accuracy_loss_pct") {
		t.Fatalf("CSV header missing fidelity columns: %s", header)
	}
	var buf bytes.Buffer
	if err := on.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+len(on.Points) {
		t.Fatalf("got %d CSV lines, want %d", len(lines), 1+len(on.Points))
	}
	if !strings.Contains(lines[1], on.Points[0].Objective) || strings.Contains(lines[1], ",,,") {
		t.Fatalf("fidelity-on CSV row has empty fidelity cells: %s", lines[1])
	}

	off, err := Run(fidelitySweepSpec(nil), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := off.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	offLines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if !strings.Contains(offLines[1], ",,,") {
		t.Fatalf("fidelity-off CSV row should leave the three fidelity cells empty: %s", offLines[1])
	}
}

// TestEvalFidelity covers the /v1/eval surface: the rollup annotates
// layers and MAC-weighted totals when requested, is absent otherwise, and
// never perturbs the energy metrics.
func TestEvalFidelity(t *testing.T) {
	base := EvalRequest{
		Preset: "albireo", Inline: tinyNet(),
		Budget: 40, Seed: 1, Workers: 1,
	}
	off := base
	offResp, err := Eval(&off, nil)
	if err != nil {
		t.Fatal(err)
	}
	on := base
	on.Fidelity = &fidelity.Spec{}
	onResp, err := Eval(&on, nil)
	if err != nil {
		t.Fatal(err)
	}

	if offResp.EffectiveBits != 0 || offResp.SNRDB != 0 || offResp.AccuracyLossPct != 0 {
		t.Fatalf("fidelity fields set without a fidelity request: %+v", offResp)
	}
	if onResp.EffectiveBits <= 0 || onResp.SNRDB <= 0 {
		t.Fatalf("fidelity request produced no rollup: bits=%v snr=%v", onResp.EffectiveBits, onResp.SNRDB)
	}
	if onResp.EffectiveBits >= 8 {
		t.Fatalf("analog chain reports %v effective bits, expected below the 8-bit reference", onResp.EffectiveBits)
	}
	for i := range onResp.Layers {
		if onResp.Layers[i].EffectiveBits <= 0 {
			t.Fatalf("layer %d missing fidelity annotation", i)
		}
	}
	if offResp.TotalPJ != onResp.TotalPJ || offResp.Cycles != onResp.Cycles ||
		offResp.MACs != onResp.MACs || offResp.Utilization != onResp.Utilization ||
		offResp.Evaluations != onResp.Evaluations {
		t.Fatalf("fidelity request changed the evaluation itself:\noff %+v\non  %+v", offResp, onResp)
	}

	// The electrical baseline has no analog chain: a fidelity request
	// reports the full reference precision with zero loss.
	digital := EvalRequest{
		Preset: "electrical-baseline", Inline: tinyNet(),
		Budget: 40, Seed: 1, Workers: 1,
		Fidelity: &fidelity.Spec{},
	}
	digResp, err := Eval(&digital, nil)
	if err != nil {
		t.Fatal(err)
	}
	if digResp.EffectiveBits != 8 || digResp.AccuracyLossPct != 0 {
		t.Fatalf("digital chain: bits=%v loss=%v, want exactly 8 and 0", digResp.EffectiveBits, digResp.AccuracyLossPct)
	}
}

// TestStudyFidelity: a fidelity-enabled study annotates albireo-backed
// rows, leaves the electrical baseline's columns empty (nil default spec),
// and keeps every ranked metric bit-identical to a plain study.
func TestStudyFidelity(t *testing.T) {
	plain := studySpecSmall()
	fid := studySpecSmall()
	fid.Fidelity = true

	plainRes, err := RunStudy(plain, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	fidRes, err := RunStudy(fid, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(plainRes.Rows) != len(fidRes.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(plainRes.Rows), len(fidRes.Rows))
	}
	for i := range fidRes.Rows {
		p, f := &plainRes.Rows[i], &fidRes.Rows[i]
		if p.Preset != f.Preset || p.Objective != f.Objective || p.Rank != f.Rank ||
			p.TotalPJ != f.TotalPJ || p.Cycles != f.Cycles || p.Score != f.Score {
			t.Fatalf("row %d changed under fidelity: %+v vs %+v", i, p, f)
		}
		switch f.Preset {
		case "electrical-baseline":
			if f.EffectiveBits != 0 {
				t.Errorf("row %d: electrical baseline should keep empty fidelity columns, got %v bits", i, f.EffectiveBits)
			}
		default:
			if f.EffectiveBits <= 0 || f.EffectiveBits >= 8 {
				t.Errorf("row %d (%s): effective bits %v, want in (0, 8)", i, f.Preset, f.EffectiveBits)
			}
		}
	}

	var buf bytes.Buffer
	if err := fidRes.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.SplitN(buf.String(), "\n", 2)[0], "effective_bits") {
		t.Fatalf("study CSV header missing effective_bits: %s", buf.String())
	}
}

// TestFidelityReportsMatchPerLayerChain pins the group's fidelity memo
// (one report per distinct best, one rollup per distinct merge factor)
// against a reference loop that searches every layer directly and calls
// Chain.Evaluate on its best: every layer row's fidelity fields and every
// point's MAC-weighted rollup must be bit-equal. ResNet-18's repeated
// shapes exercise the shared bests, MobileNetV2's depthwise and pointwise
// layers many merge factors.
func TestFidelityReportsMatchPerLayerChain(t *testing.T) {
	if testing.Short() {
		t.Skip("searches two networks per preset directly")
	}
	networks := []string{"resnet18", "mobilenet_v2"}
	objectives := []string{"energy", "delay", "edp"}
	const budget, seed = 40, 1
	for _, preset := range []string{"albireo", "albireo-adc-lean"} {
		sp := Spec{
			Base:          Base{Preset: preset},
			Objectives:    objectives,
			Budget:        budget,
			Seed:          seed,
			SearchWorkers: 1,
			IncludeLayers: true,
			Fidelity:      &fidelity.Spec{},
		}
		for _, n := range networks {
			sp.Workloads = append(sp.Workloads, Workload{Network: n})
		}
		res, err := Run(sp, Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		p, err := presets.ByName(preset)
		if err != nil {
			t.Fatal(err)
		}
		a, err := p.Build()
		if err != nil {
			t.Fatal(err)
		}
		chain, err := fidelity.Compile(a, &fidelity.Spec{})
		if err != nil {
			t.Fatal(err)
		}
		for wi, name := range networks {
			net, err := workload.ByName(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			for oi, objName := range objectives {
				obj, err := mapper.ParseObjective(objName)
				if err != nil {
					t.Fatal(err)
				}
				pt := &res.Points[wi*len(objectives)+oi]
				if pt.Network != name || pt.Objective != objName || len(pt.Layers) != len(net.Layers) {
					t.Fatalf("%s point %d is %s/%s with %d layers, want %s/%s with %d",
						preset, pt.Index, pt.Network, pt.Objective, len(pt.Layers), name, objName, len(net.Layers))
				}
				var macs, bits, snr, loss float64
				for li := range net.Layers {
					layer := &net.Layers[li]
					best, err := mapper.Search(a, layer, mapper.Options{
						Objective: obj, Budget: budget, Seed: seed, Workers: 1,
						Seeds: mapper.SeedList(albireo.CanonicalMappings(a, layer)),
					})
					if err != nil {
						t.Fatal(err)
					}
					rep := chain.Evaluate(best.Mapping)
					lo := &pt.Layers[li]
					if lo.EffectiveBits != rep.EffectiveBits || lo.SNRDB != rep.SNRDB || lo.AccuracyLossPct != rep.AccuracyLossPct {
						t.Fatalf("%s %s/%s layer %s: row (%v, %v, %v), chain (%v, %v, %v)",
							preset, name, objName, layer.Name, lo.EffectiveBits, lo.SNRDB, lo.AccuracyLossPct,
							rep.EffectiveBits, rep.SNRDB, rep.AccuracyLossPct)
					}
					w := float64(best.Result.MACs)
					macs += w
					bits += rep.EffectiveBits * w
					snr += rep.SNRDB * w
					loss += rep.AccuracyLossPct * w
				}
				if pt.EffectiveBits != bits/macs || pt.SNRDB != snr/macs || pt.AccuracyLossPct != loss/macs {
					t.Errorf("%s %s/%s rollup (%v, %v, %v), per-layer chain (%v, %v, %v)",
						preset, name, objName, pt.EffectiveBits, pt.SNRDB, pt.AccuracyLossPct,
						bits/macs, snr/macs, loss/macs)
				}
			}
		}
	}
}
