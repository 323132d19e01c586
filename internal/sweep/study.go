package sweep

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"

	"photoloop/internal/mapper"
	"photoloop/internal/md"
	"photoloop/internal/presets"
	"photoloop/internal/workload"
)

// StudySpec declares a comparative study: the cross product of named
// architecture presets × zoo workloads × mapper objectives, evaluated
// through the cached sweep engine and ranked per (workload, objective)
// group. It is the declarative form behind `photoloop study` and
// `POST /v1/study`.
type StudySpec struct {
	// Name labels the study in outputs.
	Name string `json:"name,omitempty"`
	// Presets names the architecture presets to compare (presets.Names).
	// Empty, or any entry equal to "all", selects the whole library.
	Presets []string `json:"presets,omitempty"`
	// Workloads names the zoo networks to evaluate. Empty, or any entry
	// equal to "all", selects the whole zoo.
	Workloads []string `json:"workloads,omitempty"`
	// Objectives are mapper objectives ("energy", "delay", "edp");
	// default is energy only. Rows are ranked within each (workload,
	// objective) group by the objective's own metric.
	Objectives []string `json:"objectives,omitempty"`
	// Batch is the batch size applied to every workload (default 1).
	Batch int `json:"batch,omitempty"`
	// Budget is the mapper evaluation budget per layer (0 = mapper
	// default).
	Budget int `json:"budget,omitempty"`
	// Seed fixes the mapper's randomness (0 = mapper default).
	Seed int64 `json:"seed,omitempty"`
	// SearchWorkers is the per-layer search's lane count: semantic,
	// default mapper.DefaultLanes (0); run on min(lanes, GOMAXPROCS)
	// goroutines. Results are deterministic for a fixed (Seed,
	// SearchWorkers) pair.
	SearchWorkers int `json:"search_workers,omitempty"`
	// Fidelity additionally runs each preset's default analog fidelity
	// rollup (presets.Preset.DefaultFidelity) over every row's best
	// mappings. Energy/delay/area columns are bit-identical either way;
	// presets without an analog datapath keep empty fidelity columns.
	Fidelity bool `json:"fidelity,omitempty"`
}

// resolvePresets expands the preset selection, treating empty and "all"
// as the whole library.
func (sp *StudySpec) resolvePresets() ([]string, error) {
	names := sp.Presets
	if len(names) == 0 {
		return presets.Names(), nil
	}
	for _, n := range names {
		if n == "all" {
			return presets.Names(), nil
		}
	}
	for _, n := range names {
		if _, err := presets.ByName(n); err != nil {
			return nil, fmt.Errorf("sweep: study: %w", err)
		}
	}
	return names, nil
}

// resolveWorkloads expands the workload selection, treating empty and
// "all" as the whole zoo (in curated zoo order).
func (sp *StudySpec) resolveWorkloads() ([]string, error) {
	names := sp.Workloads
	all := false
	if len(names) == 0 {
		all = true
	}
	for _, n := range names {
		if n == "all" {
			all = true
		}
	}
	if all {
		var out []string
		for _, e := range workload.ZooEntries() {
			out = append(out, e.Name)
		}
		return out, nil
	}
	zoo := workload.Zoo()
	for _, n := range names {
		if _, ok := zoo[n]; !ok {
			return nil, fmt.Errorf("sweep: study: unknown network %q", n)
		}
	}
	return names, nil
}

// StudyRow is one evaluated (preset, workload, objective) combination
// with its rank inside the (workload, objective) group (1 = best).
type StudyRow struct {
	// Rank orders presets within the row's (network, objective) group by
	// Score, ascending; 1 is the winner.
	Rank int `json:"rank"`
	// Preset, Network, Batch and Objective identify the evaluation.
	Preset    string `json:"preset"`
	Network   string `json:"network"`
	Batch     int    `json:"batch"`
	Objective string `json:"objective"`
	// Arch is the built architecture's name.
	Arch string `json:"arch"`
	// AreaUM2 and PeakMACsPerCycle are mapping-independent properties.
	AreaUM2          float64 `json:"area_um2"`
	PeakMACsPerCycle int64   `json:"peak_macs_per_cycle"`
	// Whole-network metrics (identical to the underlying sweep Point's).
	MACs         int64   `json:"macs"`
	Cycles       float64 `json:"cycles"`
	TotalPJ      float64 `json:"total_pj"`
	PJPerMAC     float64 `json:"pj_per_mac"`
	MACsPerCycle float64 `json:"macs_per_cycle"`
	Utilization  float64 `json:"utilization"`
	// EffectiveBits, SNRDB and AccuracyLossPct carry the MAC-weighted
	// analog fidelity rollup when the study set Fidelity.
	EffectiveBits   float64 `json:"effective_bits,omitempty"`
	SNRDB           float64 `json:"snr_db,omitempty"`
	AccuracyLossPct float64 `json:"accuracy_loss_pct,omitempty"`
	// Score is the ranked metric: total pJ for "energy", cycles for
	// "delay", their product for "edp".
	Score float64 `json:"score"`
}

// StudyResult is a completed study: rows grouped by (network, objective)
// in selection order, ranked best-first inside each group.
type StudyResult struct {
	Name string     `json:"name,omitempty"`
	Rows []StudyRow `json:"rows"`
	// CacheHits and CacheMisses count layer searches the shared
	// mapper.Cache served versus computed across the whole study (one
	// cache spans all presets). They count dedupe across points only: a
	// point never sends its repeated layer shapes to the cache.
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
}

// StudyObjectives returns the objective names a study accepts
// (mapper.ParseObjective's vocabulary), in canonical order.
func StudyObjectives() []string { return []string{"energy", "delay", "edp"} }

// score derives the ranked metric from a point.
func score(objective string, p *Point) float64 {
	switch objective {
	case "delay":
		return p.Cycles
	case "edp":
		return p.TotalPJ * p.Cycles
	default: // energy
		return p.TotalPJ
	}
}

// RunStudy evaluates the study: one sweep per preset through the shared
// cached engine, then a rank pass. Every (preset, workload, objective)
// row is bit-identical to evaluating the same pair individually (Eval
// with the same budget/seed/workers), because both run the identical
// evaluation path — test-guarded.
func RunStudy(sp StudySpec, opts Options) (*StudyResult, error) {
	presetNames, err := sp.resolvePresets()
	if err != nil {
		return nil, err
	}
	workloadNames, err := sp.resolveWorkloads()
	if err != nil {
		return nil, err
	}
	objectives := sp.Objectives
	if len(objectives) == 0 {
		objectives = []string{"energy"}
	}

	wls := make([]Workload, len(workloadNames))
	for i, n := range workloadNames {
		wls[i] = Workload{Network: n, Batch: sp.Batch}
	}

	// One cache across every preset's sweep: identical layer shapes on
	// identical architectures (e.g. two presets sharing a sub-hierarchy)
	// dedupe study-wide, and callers can share further.
	runOpts := opts
	if runOpts.Cache == nil {
		runOpts.Cache = mapper.NewCache()
	}
	total := len(presetNames) * len(workloadNames) * len(objectives)
	done := 0

	res := &StudyResult{Name: sp.Name}
	for _, preset := range presetNames {
		sub := Spec{
			Name:          preset,
			Base:          Base{Preset: preset},
			Workloads:     wls,
			Objectives:    objectives,
			Budget:        sp.Budget,
			Seed:          sp.Seed,
			SearchWorkers: sp.SearchWorkers,
		}
		if sp.Fidelity {
			p, _ := presets.ByName(preset) // validated by resolvePresets
			sub.Fidelity = p.DefaultFidelity()
		}
		presetOpts := runOpts
		if opts.Progress != nil {
			base := done
			presetOpts.Progress = func(d, _ int) { opts.Progress(base+d, total) }
		}
		sres, err := Run(sub, presetOpts)
		if err != nil {
			return nil, fmt.Errorf("sweep: study preset %q: %w", preset, err)
		}
		done += len(sres.Points)
		res.CacheHits += sres.CacheHits
		res.CacheMisses += sres.CacheMisses
		for i := range sres.Points {
			p := &sres.Points[i]
			res.Rows = append(res.Rows, StudyRow{
				Preset:           preset,
				Network:          p.Network,
				Batch:            p.Batch,
				Objective:        p.Objective,
				Arch:             p.Arch,
				AreaUM2:          p.AreaUM2,
				PeakMACsPerCycle: p.PeakMACsPerCycle,
				MACs:             p.MACs,
				Cycles:           p.Cycles,
				TotalPJ:          p.TotalPJ,
				PJPerMAC:         p.PJPerMAC,
				MACsPerCycle:     p.MACsPerCycle,
				Utilization:      p.Utilization,
				EffectiveBits:    p.EffectiveBits,
				SNRDB:            p.SNRDB,
				AccuracyLossPct:  p.AccuracyLossPct,
				Score:            score(p.Objective, p),
			})
		}
	}

	rankRows(res.Rows, workloadNames, objectives, presetNames)
	return res, nil
}

// rankRows sorts rows into (workload, objective) groups in selection
// order and assigns ranks by ascending score, breaking ties by preset
// order so the result is fully deterministic.
func rankRows(rows []StudyRow, workloads, objectives, presetNames []string) {
	pos := func(list []string, v string) int {
		for i, s := range list {
			if s == v {
				return i
			}
		}
		return len(list)
	}
	sort.SliceStable(rows, func(i, j int) bool {
		a, b := &rows[i], &rows[j]
		if wa, wb := pos(workloads, a.Network), pos(workloads, b.Network); wa != wb {
			return wa < wb
		}
		if oa, ob := pos(objectives, a.Objective), pos(objectives, b.Objective); oa != ob {
			return oa < ob
		}
		if a.Score != b.Score {
			return a.Score < b.Score
		}
		return pos(presetNames, a.Preset) < pos(presetNames, b.Preset)
	})
	rank := 0
	for i := range rows {
		if i == 0 || rows[i].Network != rows[i-1].Network || rows[i].Objective != rows[i-1].Objective {
			rank = 0
		}
		rank++
		rows[i].Rank = rank
	}
}

// WriteJSON writes the study as an indented JSON document.
func (r *StudyResult) WriteJSON(w io.Writer) error {
	return EncodeResponseJSON(w, r)
}

// studyColumns are the CSV/markdown/table columns, in order.
var studyColumns = []string{
	"network", "objective", "rank", "preset", "arch",
	"area_mm2", "peak_macs_per_cycle",
	"total_pj", "pj_per_mac", "cycles", "macs_per_cycle", "utilization",
	"effective_bits", "snr_db", "accuracy_loss_pct",
}

// fields renders the row's column values.
func (row *StudyRow) fields() []string {
	cells := []string{
		row.Network, row.Objective, strconv.Itoa(row.Rank), row.Preset, row.Arch,
		fmt.Sprintf("%.4f", row.AreaUM2/1e6), strconv.FormatInt(row.PeakMACsPerCycle, 10),
		fmt.Sprintf("%.4f", row.TotalPJ), fmt.Sprintf("%.6f", row.PJPerMAC),
		fmt.Sprintf("%.1f", row.Cycles), fmt.Sprintf("%.3f", row.MACsPerCycle),
		fmt.Sprintf("%.4f", row.Utilization),
	}
	return append(cells, fidelityCells(row.EffectiveBits, row.SNRDB, row.AccuracyLossPct)...)
}

// WriteCSV writes the study as CSV, one row per (preset, workload,
// objective), in ranked group order.
func (r *StudyResult) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(studyColumns); err != nil {
		return err
	}
	for i := range r.Rows {
		if err := cw.Write(r.Rows[i].fields()); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// studyMarkdownHeaders and studyMarkdownAlign describe the per-group
// markdown table (one byte per column, 'l' left / 'r' right).
var studyMarkdownHeaders = []string{"rank", "preset", "total pJ", "pJ/MAC", "cycles", "MACs/cycle", "util", "area mm²"}

const studyMarkdownAlign = "rlrrrrrr"

// WriteMarkdown writes the study as one ranked markdown table per
// (workload, objective) group — directly pasteable into docs. Tables are
// rendered through the shared md helper, so a `|` in a preset name or
// description cannot break a row.
func (r *StudyResult) WriteMarkdown(w io.Writer) error {
	for i := 0; i < len(r.Rows); {
		group := &r.Rows[i]
		if i > 0 {
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "### %s · batch %d · objective %s\n\n",
			md.Escape(group.Network), group.Batch, md.Escape(group.Objective)); err != nil {
			return err
		}
		var rows [][]string
		for ; i < len(r.Rows); i++ {
			row := &r.Rows[i]
			if row.Network != group.Network || row.Objective != group.Objective {
				break
			}
			rows = append(rows, []string{
				strconv.Itoa(row.Rank), row.Preset,
				fmt.Sprintf("%.4g", row.TotalPJ), fmt.Sprintf("%.4f", row.PJPerMAC),
				fmt.Sprintf("%.4g", row.Cycles), fmt.Sprintf("%.1f", row.MACsPerCycle),
				fmt.Sprintf("%.1f%%", 100*row.Utilization), fmt.Sprintf("%.2f", row.AreaUM2/1e6),
			})
		}
		if err := md.Table(w, studyMarkdownHeaders, studyMarkdownAlign, rows); err != nil {
			return err
		}
	}
	return nil
}
