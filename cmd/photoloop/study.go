package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"photoloop/internal/sweep"
)

// cmdStudy runs the comparative preset study: presets x workloads x
// objectives through the cached sweep engine, ranked per (workload,
// objective) group. See sweep.StudySpec for the semantics.
func cmdStudy(args []string) error {
	fs := flag.NewFlagSet("study", flag.ExitOnError)
	presetsFlag := fs.String("presets", "all", "comma-separated preset names, or all")
	workloads := fs.String("workloads", "all", "comma-separated zoo network names, or all")
	objectives := fs.String("objectives", "energy", "comma-separated mapper objectives (energy, delay, edp)")
	batch := fs.Int("batch", 1, "batch size for every workload")
	budget := fs.Int("budget", 0, "mapper budget per layer (0 = mapper default)")
	seed := fs.Int64("seed", 0, "mapper seed (0 = mapper default)")
	searchWorkers := fs.Int("search-workers", 0, searchWorkersUsage)
	workers := fs.Int("workers", 0, "point-level worker pool size (default GOMAXPROCS)")
	format := fs.String("format", "table", "output format: table, markdown, json or csv")
	outPath := fs.String("out", "", "write results to this file (default stdout)")
	quiet := fs.Bool("quiet", false, "suppress progress output")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch *format {
	case "table", "markdown", "json", "csv":
	default:
		return fmt.Errorf("unknown format %q (want table, markdown, json or csv)", *format)
	}

	spec := sweep.StudySpec{
		Presets:       splitList(*presetsFlag),
		Workloads:     splitList(*workloads),
		Objectives:    splitList(*objectives),
		Batch:         *batch,
		Budget:        *budget,
		Seed:          *seed,
		SearchWorkers: *searchWorkers,
	}

	out, closeOut, err := openOut(*outPath)
	if err != nil {
		return err
	}

	res, err := sweep.RunStudy(spec, sweep.Options{Workers: *workers, Progress: progress("study", *quiet)})
	if err != nil {
		return closeOut(err)
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "study: %d layer searches, %d deduplicated\n",
			res.CacheHits+res.CacheMisses, res.CacheHits)
	}
	if *format == "table" {
		return closeOut(renderStudyTable(out, res))
	}
	return closeOut(sweep.WriteArtifact(out, res, *format))
}

// renderStudyTable prints the ranked comparison as an aligned text table,
// one section per (workload, objective) group.
func renderStudyTable(out io.Writer, res *sweep.StudyResult) error {
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "network\tobjective\trank\tpreset\tpJ/MAC\tMACs/cycle\tutil\tarea mm^2\ttotal pJ\tcycles")
	for i := range res.Rows {
		r := &res.Rows[i]
		if i > 0 && (r.Network != res.Rows[i-1].Network || r.Objective != res.Rows[i-1].Objective) {
			fmt.Fprintln(w, "\t\t\t\t\t\t\t\t\t")
		}
		fmt.Fprintf(w, "%s\t%s\t%d\t%s\t%.4f\t%.1f\t%.1f%%\t%.2f\t%.4g\t%.4g\n",
			r.Network, r.Objective, r.Rank, r.Preset, r.PJPerMAC, r.MACsPerCycle,
			100*r.Utilization, r.AreaUM2/1e6, r.TotalPJ, r.Cycles)
	}
	return w.Flush()
}
