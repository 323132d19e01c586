package exp

import (
	"fmt"
	"io"

	"photoloop/internal/albireo"
	"photoloop/internal/md"
	"photoloop/internal/sweep"
)

// Fig4Batch is the batch size used for the batched configurations.
const Fig4Batch = 8

// Fig4Row is one bar of the memory exploration.
type Fig4Row struct {
	Scaling albireo.Scaling
	Batched bool
	Fused   bool
	// PJPerMAC is absolute system energy per MAC.
	PJPerMAC float64
	// Normalized is relative to the non-batched, not-fused bar of the
	// same scaling (the figure normalizes per scaling).
	Normalized float64
	// Bins is the role breakdown in pJ/MAC.
	Bins map[albireo.RoleBin]float64
	// DRAMShare is the DRAM fraction of total energy.
	DRAMShare float64
	// PaperConfig marks the configuration matching the original Albireo
	// paper's assumptions (non-batched, not fused).
	PaperConfig bool
}

// Fig4Result reproduces Fig. 4: full-system (accelerator + DRAM) ResNet18
// energy under batching and layer fusion, for conservative and aggressive
// scaling. The paper's findings: DRAM is a small fraction of the
// conservative system but ~75% of the aggressive one, and batching+fusion
// recover ~3x on the aggressive system.
type Fig4Result struct {
	Rows []Fig4Row
	// AggressiveBaselineDRAMShare is the DRAM share of the aggressive
	// non-batched, not-fused system (paper: 0.75).
	AggressiveBaselineDRAMShare float64
	// ConservativeBaselineDRAMShare (paper: small).
	ConservativeBaselineDRAMShare float64
	// AggressiveCombinedReduction is 1 - normalized energy of the
	// batched+fused aggressive system (paper: 0.67, i.e. 3x).
	AggressiveCombinedReduction float64
}

// Fig4SweepSpec is the declarative form of the Fig. 4 memory exploration:
// per scaling, the four batching × fusion configurations of ResNet18.
func Fig4SweepSpec(cfg Config) sweep.Spec {
	cfg = cfg.withDefaults()
	scalings := make([]any, 0, len(fig4Scalings()))
	for _, s := range fig4Scalings() {
		scalings = append(scalings, s.String())
	}
	return sweep.Spec{
		Name: "fig4",
		Base: sweep.Base{Albireo: &sweep.AlbireoBase{}},
		Axes: []sweep.Axis{{Param: "scaling", Values: scalings}},
		Workloads: []sweep.Workload{
			{Network: "resnet18", Batch: 1},
			{Network: "resnet18", Batch: Fig4Batch},
			{Network: "resnet18", Batch: 1, Fused: true},
			{Network: "resnet18", Batch: Fig4Batch, Fused: true},
		},
		Objectives:    []string{"energy"},
		Budget:        cfg.Budget,
		Seed:          cfg.Seed,
		SearchWorkers: cfg.Workers,
	}
}

// Fig4 runs the memory exploration through the sweep subsystem.
func Fig4(cfg Config) (*Fig4Result, error) {
	res, err := sweep.Run(Fig4SweepSpec(cfg), sweep.Options{})
	if err != nil {
		return nil, fmt.Errorf("exp: fig4: %w", err)
	}
	out := &Fig4Result{}
	var base float64
	for i := range res.Points {
		pt := &res.Points[i]
		s, err := albireo.ParseScaling(pt.Params["scaling"].(string))
		if err != nil {
			return nil, fmt.Errorf("exp: fig4: %w", err)
		}
		batched := pt.Batch == Fig4Batch
		macs := float64(pt.MACs)
		breakdown := albireo.RoleBreakdown(pt.Results...)
		bins := map[albireo.RoleBin]float64{}
		for bin, pj := range breakdown {
			bins[bin] = pj / macs
		}
		dramShare := 0.0
		if pt.TotalPJ > 0 {
			dramShare = breakdown[albireo.RoleDRAM] / pt.TotalPJ
		}
		row := Fig4Row{
			Scaling: s, Batched: batched, Fused: pt.Fused,
			PJPerMAC:    pt.PJPerMAC,
			Bins:        bins,
			DRAMShare:   dramShare,
			PaperConfig: !batched && !pt.Fused,
		}
		// The sweep walks workloads in order per scaling, so the first
		// point of each scaling is the non-batched, not-fused baseline
		// the figure normalizes against.
		if row.PaperConfig {
			base = row.PJPerMAC
		}
		row.Normalized = row.PJPerMAC / base
		out.Rows = append(out.Rows, row)

		if row.PaperConfig {
			switch s {
			case albireo.Aggressive:
				out.AggressiveBaselineDRAMShare = row.DRAMShare
			case albireo.Conservative:
				out.ConservativeBaselineDRAMShare = row.DRAMShare
			}
		}
		if s == albireo.Aggressive && batched && pt.Fused {
			out.AggressiveCombinedReduction = 1 - row.Normalized
		}
	}
	return out, nil
}

// Table returns the rows as table cells with their column headers and
// alignment (see md.Table).
func (r *Fig4Result) Table() (headers []string, align string, rows [][]string) {
	headers, align = []string{"Scaling", "Batched", "Fused", "pJ/MAC", "Normalized", "DRAM share"}, "lllrrr"
	for _, b := range albireo.RoleBins() {
		headers, align = append(headers, string(b)), align+"r"
	}
	headers, align = append(headers, "Note"), align+"l"
	for _, row := range r.Rows {
		cells := []string{row.Scaling.String(), yn(row.Batched), yn(row.Fused),
			fmt.Sprintf("%.3f", row.PJPerMAC),
			fmt.Sprintf("%.3f", row.Normalized),
			pct(row.DRAMShare)}
		for _, b := range albireo.RoleBins() {
			cells = append(cells, fmt.Sprintf("%.3f", row.Bins[b]))
		}
		note := ""
		if row.PaperConfig {
			note = "Albireo paper config"
		}
		rows = append(rows, append(cells, note))
	}
	return headers, align, rows
}

func yn(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// Render writes the figure as text.
func (r *Fig4Result) Render(w io.Writer) error {
	fmt.Fprintln(w, "Fig. 4 — Memory exploration: ResNet18 system energy, normalized per scaling")
	headers, align, rows := r.Table()
	if err := md.Table(w, headers, align, rows); err != nil {
		return err
	}
	for _, row := range r.Rows {
		label := fmt.Sprintf("%-12s batch=%v fused=%v", row.Scaling, row.Batched, row.Fused)
		fmt.Fprintf(w, "%s |%s %.3f\n", label, bar(row.Normalized, 1.2, 48), row.Normalized)
	}
	fmt.Fprintf(w, "Aggressive baseline DRAM share: %s (paper: ~75%%)\n", pct(r.AggressiveBaselineDRAMShare))
	fmt.Fprintf(w, "Conservative baseline DRAM share: %s (paper: small)\n", pct(r.ConservativeBaselineDRAMShare))
	fmt.Fprintf(w, "Aggressive batching+fusion reduction: %s (paper: 67%%, i.e. 3x)\n", pct(r.AggressiveCombinedReduction))
	return nil
}
