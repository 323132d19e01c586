package exp

import (
	"fmt"
	"io"
	"math"

	"photoloop/internal/albireo"
	"photoloop/internal/md"
	"photoloop/internal/model"
)

// Fig2Row is one bar of the Fig. 2 energy-breakdown validation.
type Fig2Row struct {
	Scaling albireo.Scaling
	// Kind is "Model" or "Reported".
	Kind string
	// Bins holds pJ/MAC per Fig. 2 bin (accelerator + laser, no DRAM).
	Bins map[albireo.Fig2Bin]float64
	// Total sums the bins.
	Total float64
}

// Fig2Result reproduces Fig. 2: modeled vs reported best-case energy
// breakdown across the three scaling projections.
type Fig2Result struct {
	Rows []Fig2Row
	// AvgAbsErrPct is the mean |model-reported|/reported of the bar
	// totals, in percent (the paper reports 0.4%).
	AvgAbsErrPct float64
	// Utilization of the best-case layer (should be 1.0).
	Utilization float64
}

// Fig2 runs the energy-breakdown validation. It is deterministic: the
// canonical (architect-intended) mapping is evaluated directly.
func Fig2(cfg Config) (*Fig2Result, error) {
	cfg = cfg.withDefaults()
	layer := BestCaseLayer()
	out := &Fig2Result{}
	var errSum float64
	var n int
	for _, s := range fig2Scalings() {
		a, err := albireo.Default(s).Build()
		if err != nil {
			return nil, err
		}
		m, err := albireo.CanonicalBest(a, &layer)
		if err != nil {
			return nil, err
		}
		res, err := model.Evaluate(a, &layer, m, model.Options{})
		if err != nil {
			return nil, err
		}
		out.Utilization = res.Utilization

		macs := float64(res.MACs)
		modelBins := map[albireo.Fig2Bin]float64{}
		for bin, pj := range albireo.Fig2Breakdown(res) {
			if bin == albireo.BinDRAM {
				continue // Fig. 2 scope is accelerator + laser
			}
			modelBins[bin] = pj / macs
		}
		modelRow := Fig2Row{Scaling: s, Kind: "Model", Bins: modelBins}
		for _, v := range modelBins {
			modelRow.Total += v
		}
		repBins := albireo.ReportedFig2(s)
		repRow := Fig2Row{Scaling: s, Kind: "Reported", Bins: repBins, Total: albireo.ReportedFig2Total(s)}
		out.Rows = append(out.Rows, modelRow, repRow)

		errSum += math.Abs(modelRow.Total-repRow.Total) / repRow.Total
		n++
	}
	out.AvgAbsErrPct = 100 * errSum / float64(n)
	return out, nil
}

// Table returns the result rows as table cells with their column
// headers and alignment (see md.Table).
func (r *Fig2Result) Table() (headers []string, align string, rows [][]string) {
	headers, align = []string{"Scaling", "Kind"}, "ll"
	for _, b := range albireo.Fig2Bins() {
		headers, align = append(headers, string(b)), align+"r"
	}
	headers, align = append(headers, "Total pJ/MAC"), align+"r"
	for _, row := range r.Rows {
		cells := []string{row.Scaling.String(), row.Kind}
		for _, b := range albireo.Fig2Bins() {
			cells = append(cells, fmt.Sprintf("%.3f", row.Bins[b]))
		}
		rows = append(rows, append(cells, fmt.Sprintf("%.3f", row.Total)))
	}
	return headers, align, rows
}

// Render writes the figure as text.
func (r *Fig2Result) Render(w io.Writer) error {
	fmt.Fprintln(w, "Fig. 2 — Energy breakdown validation (best-case pJ/MAC, accelerator + laser)")
	headers, align, rows := r.Table()
	if err := md.Table(w, headers, align, rows); err != nil {
		return err
	}
	fmt.Fprintf(w, "Average overall energy error: %.2f%% (paper: 0.4%%)\n", r.AvgAbsErrPct)
	maxTotal := 0.0
	for _, row := range r.Rows {
		if row.Total > maxTotal {
			maxTotal = row.Total
		}
	}
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-12s %-8s |%s %.3f\n", row.Scaling, row.Kind,
			bar(row.Total, maxTotal, 48), row.Total)
	}
	return nil
}
