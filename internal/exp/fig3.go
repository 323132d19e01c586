package exp

import (
	"fmt"
	"io"

	"photoloop/internal/albireo"
	"photoloop/internal/md"
	"photoloop/internal/sweep"
)

// LayerThroughput records one layer's achieved throughput.
type LayerThroughput struct {
	Layer string
	// Utilization is real MACs / padded compute slots.
	Utilization float64
	// MACsPerCycle is the achieved throughput including memory
	// bandwidth limits.
	MACsPerCycle float64
	// ComputeMACsPerCycle ignores bandwidth limits (pure spatial
	// utilization, the CiMLoop-style number).
	ComputeMACsPerCycle float64
	// Bottleneck names the bandwidth-limiting level, if any.
	Bottleneck string
}

// Fig3Row is one workload of the throughput comparison.
type Fig3Row struct {
	Network string
	// Ideal and Reported come from the digitized references.
	Ideal    float64
	Reported float64
	// Modeled is the per-layer arithmetic mean of achieved MACs/cycle
	// (including memory-bandwidth stalls), the aggregate plotted in the
	// reproduction.
	Modeled float64
	// ModeledComputeOnly averages the compute-bound throughput.
	ModeledComputeOnly float64
	// TotalOverCycles is total MACs / total cycles (the harmonic-style
	// aggregate, dominated by the slowest layers).
	TotalOverCycles float64
	Layers          []LayerThroughput
}

// Fig3Result reproduces Fig. 3: ideal vs reported vs modeled throughput
// for VGG16 and AlexNet. The modeled numbers capture spatial
// underutilization (strided convolutions, fully-connected layers, shapes
// that do not fill the rigid photonic array) the reported numbers omit.
type Fig3Result struct {
	Rows []Fig3Row
}

// Fig3 runs the throughput comparison through the sweep subsystem on the
// conservative configuration (throughput is scaling independent; energy
// scaling does not change the schedule search objective here, which is
// delay).
func Fig3(cfg Config) (*Fig3Result, error) {
	cfg = cfg.withDefaults()
	res, err := sweep.Run(sweep.Spec{
		Name: "fig3",
		Base: sweep.Base{Albireo: &sweep.AlbireoBase{}},
		Workloads: []sweep.Workload{
			{Network: "vgg16", Batch: 1},
			{Network: "alexnet", Batch: 1},
		},
		Objectives:    []string{"delay"},
		Budget:        cfg.Budget,
		Seed:          cfg.Seed,
		SearchWorkers: cfg.Workers,
		IncludeLayers: true,
	}, sweep.Options{})
	if err != nil {
		return nil, fmt.Errorf("exp: fig3: %w", err)
	}
	refs := albireo.ReportedFig3()
	out := &Fig3Result{}
	for i := range res.Points {
		pt := &res.Points[i]
		row := Fig3Row{
			Network:  pt.Network,
			Ideal:    refs[pt.Network].Ideal,
			Reported: refs[pt.Network].Reported,
			// The point's rate is its total MACs over its total cycles.
			TotalOverCycles: pt.MACsPerCycle,
		}
		for j, lo := range pt.Layers {
			r := pt.Results[j]
			lt := LayerThroughput{
				Layer:               lo.Layer,
				Utilization:         r.Utilization,
				MACsPerCycle:        r.MACsPerCycle,
				ComputeMACsPerCycle: float64(r.MACs) / float64(r.ComputeCycles),
				Bottleneck:          r.BottleneckLevel,
			}
			row.Layers = append(row.Layers, lt)
			row.Modeled += lt.MACsPerCycle
			row.ModeledComputeOnly += lt.ComputeMACsPerCycle
		}
		n := float64(len(row.Layers))
		row.Modeled /= n
		row.ModeledComputeOnly /= n
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Table returns the summary rows as table cells with their column
// headers and alignment (see md.Table).
func (r *Fig3Result) Table() (headers []string, align string, rows [][]string) {
	headers = []string{"Network", "Ideal", "Reported", "Modeled", "Modeled (compute-only)", "Total/cycles"}
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Network,
			fmt.Sprintf("%.0f", row.Ideal),
			fmt.Sprintf("%.0f", row.Reported),
			fmt.Sprintf("%.0f", row.Modeled),
			fmt.Sprintf("%.0f", row.ModeledComputeOnly),
			fmt.Sprintf("%.0f", row.TotalOverCycles)})
	}
	return headers, "lrrrrr", rows
}

// Render writes the figure as text, including the per-layer detail.
func (r *Fig3Result) Render(w io.Writer) error {
	fmt.Fprintln(w, "Fig. 3 — Throughput (MACs/cycle); modeled captures underutilization")
	headers, align, rows := r.Table()
	if err := md.Table(w, headers, align, rows); err != nil {
		return err
	}
	for _, row := range r.Rows {
		fmt.Fprintf(w, "\n%s per-layer achieved throughput:\n", row.Network)
		for _, lt := range row.Layers {
			note := ""
			if lt.Bottleneck != "" {
				note = " [" + lt.Bottleneck + "-bound]"
			}
			fmt.Fprintf(w, "  %-22s util %5.1f%%  %7.1f MACs/cycle |%s%s\n",
				lt.Layer, 100*lt.Utilization, lt.MACsPerCycle,
				bar(lt.MACsPerCycle, row.Ideal, 40), note)
		}
	}
	return nil
}
