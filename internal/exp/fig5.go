package exp

import (
	"fmt"
	"io"
	"strconv"

	"photoloop/internal/albireo"
	"photoloop/internal/md"
	"photoloop/internal/sweep"
)

// Fig5Row is one architecture variant of the reuse exploration.
type Fig5Row struct {
	// WeightReuse marks the "more weight reuse" topology group.
	WeightReuse bool
	// OR and IR are the paper's reuse factors (output-reusing AE
	// components; input-reusing AO components).
	OR, IR int
	// AccelPJPerMAC is accelerator+laser energy per MAC (no DRAM — the
	// figure explores the accelerator).
	AccelPJPerMAC float64
	// ConverterPJPerMAC sums all cross-domain conversion energy.
	ConverterPJPerMAC float64
	// Bins is the role breakdown (pJ/MAC, accelerator scope).
	Bins map[albireo.RoleBin]float64
	// Baseline marks the original Albireo configuration.
	Baseline bool
}

// Fig5Result reproduces Fig. 5: ResNet18 energy across reuse-scaled
// variants of the aggressively-scaled Albireo. The paper's finding:
// increasing analog/photonic-domain reuse cuts data-converter energy by
// ~42% and accelerator energy by ~31%.
type Fig5Result struct {
	Rows []Fig5Row
	// BestConverterReduction is 1 - min(converter)/baseline(converter).
	BestConverterReduction float64
	// BestAcceleratorReduction is 1 - min(accel)/baseline(accel).
	BestAcceleratorReduction float64
}

// Fig5SweepSpec is the declarative form of the Fig. 5 exploration: the
// same grid the paper walks, as a sweep document. `photoloop sweep` can run
// it from JSON, and Fig5 runs it through the same engine — one code path
// from figure reproduction to serving.
func Fig5SweepSpec(cfg Config) sweep.Spec {
	cfg = cfg.withDefaults()
	return sweep.Spec{
		Name: "fig5",
		Base: sweep.Base{Albireo: &sweep.AlbireoBase{Scaling: "aggressive"}},
		Axes: []sweep.Axis{
			{Param: "weight_reuse", Values: []any{false, true}},
			{Param: "or_lanes", Values: []any{1, 3, 5}},
			{Param: "output_lanes", Values: []any{3, 9, 15}},
		},
		Workloads:     []sweep.Workload{{Network: "resnet18", Batch: 1}},
		Objectives:    []string{"energy"},
		Budget:        cfg.Budget,
		Seed:          cfg.Seed,
		SearchWorkers: cfg.Workers,
	}
}

// Fig5 runs the architecture exploration on the aggressive scaling. The
// grid is evaluated concurrently by the sweep subsystem; results are
// bit-identical to evaluating each variant serially (guarded by
// TestFig5MatchesDirectExploration).
func Fig5(cfg Config) (*Fig5Result, error) {
	res, err := sweep.Run(Fig5SweepSpec(cfg), sweep.Options{})
	if err != nil {
		return nil, fmt.Errorf("exp: fig5: %w", err)
	}
	out := &Fig5Result{}
	var baseAccel, baseConv float64
	bestAccel, bestConv := -1.0, -1.0
	for i := range res.Points {
		pt := &res.Points[i]
		wr := pt.Params["weight_reuse"].(bool)
		orLanes := pt.Params["or_lanes"].(int)
		outLanes := pt.Params["output_lanes"].(int)
		// Recover the point's reuse factors through Config so the
		// lane-to-factor coupling stays defined in one place.
		c := albireo.Default(albireo.Aggressive)
		c.ORLanes, c.OutputLanes, c.WeightReuse = orLanes, outLanes, wr
		macs := float64(pt.MACs)
		bins := map[albireo.RoleBin]float64{}
		for bin, pj := range albireo.RoleBreakdown(pt.Results...) {
			if bin == albireo.RoleDRAM {
				continue
			}
			bins[bin] = pj / macs
		}
		row := Fig5Row{
			WeightReuse:       wr,
			OR:                c.OR(),
			IR:                c.IR(),
			AccelPJPerMAC:     albireo.AcceleratorPJ(pt.Results...) / macs,
			ConverterPJPerMAC: albireo.ConverterPJ(pt.Results...) / macs,
			Bins:              bins,
			Baseline:          !wr && orLanes == 1 && outLanes == 3,
		}
		out.Rows = append(out.Rows, row)
		if row.Baseline {
			baseAccel, baseConv = row.AccelPJPerMAC, row.ConverterPJPerMAC
		}
		if bestAccel < 0 || row.AccelPJPerMAC < bestAccel {
			bestAccel = row.AccelPJPerMAC
		}
		if bestConv < 0 || row.ConverterPJPerMAC < bestConv {
			bestConv = row.ConverterPJPerMAC
		}
	}
	if baseAccel > 0 {
		out.BestAcceleratorReduction = 1 - bestAccel/baseAccel
	}
	if baseConv > 0 {
		out.BestConverterReduction = 1 - bestConv/baseConv
	}
	return out, nil
}

// Table returns the rows as table cells with their column headers and
// alignment (see md.Table).
func (r *Fig5Result) Table() (headers []string, align string, rows [][]string) {
	headers, align = []string{"Group", "OR", "IR", "Accel pJ/MAC", "Converter pJ/MAC"}, "lrrrr"
	for _, b := range albireo.RoleBins() {
		if b == albireo.RoleDRAM {
			continue
		}
		headers, align = append(headers, string(b)), align+"r"
	}
	headers, align = append(headers, "Note"), align+"l"
	for _, row := range r.Rows {
		group := "Original"
		if row.WeightReuse {
			group = "More Weight Reuse"
		}
		cells := []string{group, strconv.Itoa(row.OR), strconv.Itoa(row.IR),
			fmt.Sprintf("%.4f", row.AccelPJPerMAC),
			fmt.Sprintf("%.4f", row.ConverterPJPerMAC)}
		for _, b := range albireo.RoleBins() {
			if b == albireo.RoleDRAM {
				continue
			}
			cells = append(cells, fmt.Sprintf("%.4f", row.Bins[b]))
		}
		note := ""
		if row.Baseline {
			note = "Albireo paper config"
		}
		rows = append(rows, append(cells, note))
	}
	return headers, align, rows
}

// Render writes the figure as text.
func (r *Fig5Result) Render(w io.Writer) error {
	fmt.Fprintln(w, "Fig. 5 — Architecture exploration: ResNet18 accelerator energy vs reuse (aggressive scaling)")
	headers, align, rows := r.Table()
	if err := md.Table(w, headers, align, rows); err != nil {
		return err
	}
	maxV := 0.0
	for _, row := range r.Rows {
		if row.AccelPJPerMAC > maxV {
			maxV = row.AccelPJPerMAC
		}
	}
	for _, row := range r.Rows {
		group := "orig"
		if row.WeightReuse {
			group = "wr  "
		}
		fmt.Fprintf(w, "%s OR=%-2d IR=%-2d |%s %.4f\n", group, row.OR, row.IR,
			bar(row.AccelPJPerMAC, maxV, 48), row.AccelPJPerMAC)
	}
	fmt.Fprintf(w, "Best converter-energy reduction: %s (paper: 42%%)\n", pct(r.BestConverterReduction))
	fmt.Fprintf(w, "Best accelerator-energy reduction: %s (paper: 31%%)\n", pct(r.BestAcceleratorReduction))
	return nil
}
