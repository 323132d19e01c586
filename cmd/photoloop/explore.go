package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"photoloop/internal/explore"
	"photoloop/internal/sweep"
)

// axisFlags collects repeated -axis flags: "param=v1,v2,..." for explicit
// value grids or "param=min..max[:step]" for ranges.
type axisFlags []explore.Axis

// String renders the accumulated axes (flag.Value).
func (a *axisFlags) String() string {
	var parts []string
	for _, ax := range *a {
		parts = append(parts, ax.Param)
	}
	return strings.Join(parts, ",")
}

// Set parses one -axis occurrence (flag.Value).
func (a *axisFlags) Set(s string) error {
	param, spec, ok := strings.Cut(s, "=")
	if !ok || param == "" || spec == "" {
		return fmt.Errorf("want param=v1,v2,... or param=min..max[:step], got %q", s)
	}
	if lo, hi, ok := strings.Cut(spec, ".."); ok {
		hi, stepStr, hasStep := strings.Cut(hi, ":")
		min, err1 := strconv.ParseFloat(lo, 64)
		max, err2 := strconv.ParseFloat(hi, 64)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("range %q: bounds must be numbers", spec)
		}
		ax := explore.Axis{Param: param, Min: &min, Max: &max}
		if hasStep {
			step, err := strconv.ParseFloat(stepStr, 64)
			if err != nil {
				return fmt.Errorf("range %q: step must be a number", spec)
			}
			ax.Step = step
		}
		*a = append(*a, ax)
		return nil
	}
	var values []any
	for _, f := range strings.Split(spec, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		values = append(values, parseAxisValue(f))
	}
	if len(values) == 0 {
		return fmt.Errorf("axis %q has no values", param)
	}
	*a = append(*a, explore.Axis{Param: param, Values: values})
	return nil
}

// parseAxisValue coerces a flag token into the natural JSON-ish type the
// sweep axis appliers accept: bool, int, float, else string.
func parseAxisValue(s string) any {
	switch s {
	case "true":
		return true
	case "false":
		return false
	}
	if n, err := strconv.Atoi(s); err == nil {
		return n
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return f
	}
	return s
}

// cmdExplore runs the Pareto-frontier design-space explorer. See
// explore.Spec for the semantics.
func cmdExplore(args []string) error {
	fs := flag.NewFlagSet("explore", flag.ExitOnError)
	specPath := fs.String("spec", "", "exploration spec JSON file (or - for stdin); overrides the flag-built spec")
	preset := fs.String("preset", "", "base architecture preset ('photoloop presets' lists them)")
	network := fs.String("network", "vgg16", "zoo network to evaluate every candidate on")
	batch := fs.Int("batch", 1, "batch size")
	var axes axisFlags
	fs.Var(&axes, "axis", "search axis, repeatable: param=v1,v2,... or param=min..max[:step] (default: the Albireo lever space)")
	objectives := fs.String("objectives", "energy,area", "comma-separated frontier objectives (energy, pj_per_mac, delay, area, edp, accuracy), all minimized")
	budget := fs.Int("budget", 0, "max design points evaluated (default 128); a space that fits is evaluated whole")
	mapperObjective := fs.String("mapper-objective", "energy", "what the mapper minimizes per candidate schedule")
	mapperBudget := fs.Int("mapper-budget", 500, "mapper evaluation budget per layer")
	seed := fs.Int64("seed", 1, "explorer + mapper seed")
	searchWorkers := fs.Int("search-workers", 0, searchWorkersUsage)
	workers := fs.Int("workers", 0, "candidate-evaluation pool size (default GOMAXPROCS / goroutines per search)")
	format := fs.String("format", "markdown", "output format: markdown, json or csv")
	outPath := fs.String("out", "", "write the frontier to this file (default stdout)")
	quiet := fs.Bool("quiet", false, "suppress progress output")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch *format {
	case "markdown", "json", "csv":
	default:
		return fmt.Errorf("unknown format %q (want markdown, json or csv)", *format)
	}

	var sp explore.Spec
	if *specPath != "" {
		var err error
		if sp, err = readSpec(*specPath, explore.DecodeSpec); err != nil {
			return err
		}
		if *budget > 0 {
			sp.Budget = *budget
		}
	} else {
		if *preset == "" {
			return fmt.Errorf("explore requires -spec or -preset")
		}
		sp = explore.Spec{
			Name:            *preset + "/" + *network,
			Base:            sweep.Base{Preset: *preset},
			Axes:            axes,
			Workload:        sweep.Workload{Network: *network, Batch: *batch},
			Objectives:      splitList(*objectives),
			Budget:          *budget,
			MapperObjective: *mapperObjective,
			MapperBudget:    *mapperBudget,
			Seed:            *seed,
			SearchWorkers:   *searchWorkers,
		}
		if len(sp.Axes) == 0 {
			sp.Axes = explore.DefaultAlbireoAxes()
		}
	}

	out, closeOut, err := openOut(*outPath)
	if err != nil {
		return err
	}

	f, err := explore.Run(sp, explore.Options{Workers: *workers, Progress: progress("explore", *quiet)})
	if err != nil {
		return closeOut(err)
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "explore: %s strategy, %d of %d points evaluated, %d Pareto-optimal, %d dominated",
			f.Strategy, f.Evals, f.SpaceSize, len(f.Points), f.Dominated)
		if f.Infeasible > 0 {
			fmt.Fprintf(os.Stderr, ", %d infeasible", f.Infeasible)
		}
		fmt.Fprintf(os.Stderr, "; %d layer searches, %d deduplicated\n",
			f.CacheHits+f.CacheMisses, f.CacheHits)
		if scored := f.Pruned + f.DeltaEvals + f.FullEvals; scored > 0 {
			fmt.Fprintf(os.Stderr, "explore: mapper scored %d candidates — %.0f%% pruned by lower bound, %d delta, %d full\n",
				scored, 100*float64(f.Pruned)/float64(scored), f.DeltaEvals, f.FullEvals)
		}
		if f.SurrogateRanked > 0 {
			fmt.Fprintf(os.Stderr, "explore: surrogate ranked %d proposals, kept %d for evaluation\n",
				f.SurrogateRanked, f.SurrogateKept)
		}
	}
	return closeOut(sweep.WriteArtifact(out, f, *format))
}

// splitList splits a comma-separated flag into trimmed non-empty fields.
func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}
