package explore

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"

	"photoloop/internal/md"
	"photoloop/internal/sweep"
)

// FrontierPoint is one non-dominated design: the full evaluated sweep
// point (axis assignments in Params/Variant — the provenance of which
// axis values produced it — plus every modeled metric), the objective
// vector in spec order, and how many evaluated designs it dominates.
type FrontierPoint struct {
	sweep.Point
	// Lattice is the point's position in the cross-product lattice
	// (first axis most significant) — stable across strategies, unlike
	// the embedded Index, which counts evaluation order.
	Lattice int64 `json:"lattice_index"`
	// Objectives holds the point's objective values in Spec.Objectives
	// order (all minimized).
	Objectives []float64 `json:"objective_values"`
	// Dominates counts how many evaluated feasible designs this point
	// Pareto-dominates.
	Dominates int `json:"dominates"`
}

// Frontier is a completed exploration: the Pareto-optimal points of the
// searched space, plus the accounting that says how much of the space was
// covered and how much work the shared search cache absorbed.
type Frontier struct {
	// Name echoes the spec's label.
	Name string `json:"name,omitempty"`
	// Strategy is the search that ran ("grid" or "adaptive").
	Strategy string `json:"strategy"`
	// Objectives are the canonical frontier dimensions, in spec order.
	Objectives []string `json:"objectives"`
	// SpaceSize is the full lattice's point count; Evals of them were
	// evaluated (all of them under the grid strategy).
	SpaceSize int64 `json:"space_size"`
	Evals     int   `json:"evals"`
	// Infeasible counts evaluated points that produced no result: the
	// architecture failed to build or evaluate, or — for grid runs that
	// returned an error — the point failed or was canceled. The adaptive
	// strategy skips infeasible points and keeps searching; the grid
	// strategy (matching sweep.Run) returns the partial frontier together
	// with the run error.
	Infeasible int `json:"infeasible,omitempty"`
	// Dominated counts evaluated feasible points that did not make the
	// frontier.
	Dominated int `json:"dominated"`
	// CacheHits and CacheMisses count layer searches the shared
	// mapper.Cache served versus computed. They count dedupe across points
	// only: a point never sends its repeated layer shapes to the cache.
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	// Pruned, DeltaEvals and FullEvals sum the mapper's search funnel
	// across the evaluated feasible points: candidates discarded by the
	// admissible lower bound without a full evaluation, evaluations that
	// reused shared-prefix state, and evaluations computed from scratch.
	Pruned     int `json:"pruned,omitempty"`
	DeltaEvals int `json:"delta_evals,omitempty"`
	FullEvals  int `json:"full_evals,omitempty"`
	// SurrogateRanked counts adaptive proposals scored by the surrogate
	// predictor; SurrogateKept of them won a real evaluation. Zero for
	// grid runs and for adaptive runs too small to arm the surrogate.
	SurrogateRanked int `json:"surrogate_ranked,omitempty"`
	SurrogateKept   int `json:"surrogate_kept,omitempty"`
	// Points is the Pareto frontier, sorted by objective vector
	// (lexicographically ascending, ties by lattice index) — so equal
	// specs produce byte-equal frontiers regardless of worker count.
	Points []FrontierPoint `json:"points"`
}

// buildFrontier dominance-filters the evaluated points into a Frontier.
// The incremental archive pass is O(evals × frontier); the per-point
// dominated counts are O(frontier × evals).
func buildFrontier(sp *Spec, strategy string, s *space, evaluated []evalPoint, infeasible int) *Frontier {
	f := &Frontier{
		Name:       sp.Name,
		Strategy:   strategy,
		Objectives: append([]string(nil), sp.Objectives...),
		SpaceSize:  s.size,
		Evals:      len(evaluated) + infeasible,
		Infeasible: infeasible,
	}
	for i := range evaluated {
		f.Pruned += evaluated[i].point.Pruned
		f.DeltaEvals += evaluated[i].point.DeltaEvals
		f.FullEvals += evaluated[i].point.FullEvals
	}
	var archive []int
	for i := range evaluated {
		dominated := false
		keep := archive[:0]
		for _, ai := range archive {
			if dominates(evaluated[ai].objs, evaluated[i].objs) {
				dominated = true
				break
			}
			if !dominates(evaluated[i].objs, evaluated[ai].objs) {
				keep = append(keep, ai)
			}
		}
		if dominated {
			continue
		}
		archive = append(keep, i)
	}
	f.Dominated = len(evaluated) - len(archive)
	for _, ai := range archive {
		ep := &evaluated[ai]
		fp := FrontierPoint{
			Point:      *ep.point,
			Lattice:    ep.lattice,
			Objectives: ep.objs,
		}
		for j := range evaluated {
			if dominates(ep.objs, evaluated[j].objs) {
				fp.Dominates++
			}
		}
		f.Points = append(f.Points, fp)
	}
	sort.Slice(f.Points, func(i, j int) bool {
		a, b := &f.Points[i], &f.Points[j]
		for k := range a.Objectives {
			if a.Objectives[k] != b.Objectives[k] {
				return a.Objectives[k] < b.Objectives[k]
			}
		}
		return a.Lattice < b.Lattice
	})
	return f
}

// WriteJSON writes the frontier as an indented JSON document (the same
// bytes POST /v1/explore answers).
func (f *Frontier) WriteJSON(w io.Writer) error {
	return sweep.EncodeResponseJSON(w, f)
}

// paramColumns returns the axis param names appearing in the frontier,
// sorted.
func (f *Frontier) paramColumns() []string {
	seen := map[string]bool{}
	var cols []string
	for i := range f.Points {
		for k := range f.Points[i].Params {
			if !seen[k] {
				seen[k] = true
				cols = append(cols, k)
			}
		}
	}
	sort.Strings(cols)
	return cols
}

// objectiveColumn maps a canonical objective to its display header and
// the formatter used in CSV/markdown output.
func objectiveColumn(name string) (header string, format func(float64) string) {
	switch name {
	case objPJPerMAC:
		return "pJ/MAC", func(v float64) string { return fmt.Sprintf("%.4f", v) }
	case objDelay:
		return "cycles", func(v float64) string { return fmt.Sprintf("%.4g", v) }
	case objArea:
		return "area mm²", func(v float64) string { return fmt.Sprintf("%.2f", v/1e6) }
	case objEDP:
		return "pJ·cycles", func(v float64) string { return fmt.Sprintf("%.4g", v) }
	case objAccuracy:
		return "acc loss %", func(v float64) string { return fmt.Sprintf("%.4f", v) }
	default: // objEnergy
		return "total pJ", func(v float64) string { return fmt.Sprintf("%.4g", v) }
	}
}

// WriteCSV writes the frontier as CSV: identity columns, one column per
// axis param (sorted), the objective values, and the summary metrics.
func (f *Frontier) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	params := f.paramColumns()
	header := []string{"lattice_index", "variant"}
	header = append(header, params...)
	for _, o := range f.Objectives {
		// Prefixed so an objective never collides with the fixed metric
		// columns (pj_per_mac appears in both roles otherwise).
		header = append(header, "objective_"+o)
	}
	header = append(header, "dominates",
		"total_pj", "pj_per_mac", "cycles", "macs_per_cycle", "utilization",
		"area_mm2", "effective_bits", "evaluations")
	if err := cw.Write(header); err != nil {
		return err
	}
	for i := range f.Points {
		p := &f.Points[i]
		row := []string{strconv.FormatInt(p.Lattice, 10), p.Variant}
		for _, k := range params {
			if v, ok := p.Params[k]; ok {
				row = append(row, fmt.Sprint(v))
			} else {
				row = append(row, "")
			}
		}
		for _, v := range p.Objectives {
			row = append(row, strconv.FormatFloat(v, 'g', -1, 64))
		}
		effBits := ""
		if p.EffectiveBits != 0 || p.SNRDB != 0 || p.AccuracyLossPct != 0 {
			effBits = fmt.Sprintf("%.4f", p.EffectiveBits)
		}
		row = append(row, strconv.Itoa(p.Dominates),
			fmt.Sprintf("%.4f", p.TotalPJ), fmt.Sprintf("%.6f", p.PJPerMAC),
			fmt.Sprintf("%.1f", p.Cycles), fmt.Sprintf("%.3f", p.MACsPerCycle),
			fmt.Sprintf("%.4f", p.Utilization), fmt.Sprintf("%.4f", p.AreaUM2/1e6),
			effBits, strconv.Itoa(p.Evaluations))
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteMarkdown writes the frontier as one markdown table (through the
// shared md helper, so axis values and names with pipes cannot break
// rows) plus a coverage trailer — directly pasteable into docs.
func (f *Frontier) WriteMarkdown(w io.Writer) error {
	params := f.paramColumns()
	headers := []string{"#"}
	align := "r"
	headers = append(headers, params...)
	for range params {
		align += "l"
	}
	formats := make([]func(float64) string, len(f.Objectives))
	for i, o := range f.Objectives {
		h, fmtFn := objectiveColumn(o)
		headers = append(headers, h)
		formats[i] = fmtFn
		align += "r"
	}
	headers = append(headers, "util", "dominates")
	align += "rr"

	rows := make([][]string, 0, len(f.Points))
	for i := range f.Points {
		p := &f.Points[i]
		row := []string{strconv.Itoa(i + 1)}
		for _, k := range params {
			if v, ok := p.Params[k]; ok {
				row = append(row, fmt.Sprint(v))
			} else {
				row = append(row, "")
			}
		}
		for j, v := range p.Objectives {
			row = append(row, formats[j](v))
		}
		row = append(row, fmt.Sprintf("%.1f%%", 100*p.Utilization), strconv.Itoa(p.Dominates))
		rows = append(rows, row)
	}
	if err := md.Table(w, headers, align, rows); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "\n%d Pareto-optimal of %d evaluated points (%s strategy, space %d); %d dominated.\n",
		len(f.Points), f.Evals, f.Strategy, f.SpaceSize, f.Dominated)
	return err
}
