package exp

import (
	"fmt"
	"io"

	"photoloop/internal/albireo"
	"photoloop/internal/mapper"
	"photoloop/internal/md"
	"photoloop/internal/model"
	"photoloop/internal/workload"
)

// AblationRow quantifies one modeling feature or design choice by an
// energy (or quality) ratio between a variant and the reference.
type AblationRow struct {
	// Name identifies the ablation.
	Name string
	// Reference and Variant are the compared quantities (pJ/MAC unless
	// noted in Metric).
	Reference, Variant float64
	// Ratio is Variant / Reference.
	Ratio float64
	// Metric names what is measured.
	Metric string
	// Note explains the finding.
	Note string
}

// AblationResult collects the design-choice ablations DESIGN.md calls out:
// each row isolates one mechanism of the model (loop permutations,
// window-overlap sharing, zero-retention streaming, canonical seeding) and
// measures how much it matters on the Albireo system.
type AblationResult struct {
	Rows []AblationRow
}

// Ablations runs the ablation suite on the aggressive Albireo and a
// mid-network ResNet18 layer.
func Ablations(cfg Config) (*AblationResult, error) {
	cfg = cfg.withDefaults()
	out := &AblationResult{}
	layer := workload.NewConv("layer2.2.conv1", 1, 128, 128, 28, 28, 3, 3, 1, 1)

	// --- 1. Loop permutation: best vs reduction-outside-output order. ---
	{
		a, err := albireo.Default(albireo.Aggressive).Build()
		if err != nil {
			return nil, err
		}
		m, err := albireo.CanonicalBest(a, &layer)
		if err != nil {
			return nil, err
		}
		ref, err := model.Evaluate(a, &layer, m, model.Options{})
		if err != nil {
			return nil, err
		}
		// Worst case: tile K and C at DRAM with the reduction loop (C)
		// outside the output loop (K) — every K-tile of partial sums is
		// evicted to DRAM before its reduction finishes and re-merged
		// there C times.
		bad := m.Clone()
		_, glbIdx, err := a.LevelByName("GlobalBuffer")
		if err != nil {
			return nil, err
		}
		badPerm := []workload.Dim{
			workload.DimC, workload.DimK, workload.DimN,
			workload.DimP, workload.DimQ, workload.DimR, workload.DimS,
		}
		bad.Levels[0].Perm = badPerm
		bad.Levels[glbIdx].Perm = append([]workload.Dim(nil), badPerm...)
		cGLB := bad.Levels[glbIdx].Temporal[workload.DimC]
		kGLB := bad.Levels[glbIdx].Temporal[workload.DimK]
		if cGLB >= 4 && kGLB >= 4 {
			bad.Levels[glbIdx].Temporal[workload.DimC] = workload.CeilDiv(cGLB, 4)
			bad.Levels[0].Temporal[workload.DimC] = 4
			bad.Levels[glbIdx].Temporal[workload.DimK] = workload.CeilDiv(kGLB, 4)
			bad.Levels[0].Temporal[workload.DimK] = 4
		}
		varRes, err := model.Evaluate(a, &layer, bad, model.Options{})
		if err != nil {
			return nil, err
		}
		out.add("loop permutation (psum thrash)", ref.PJPerMAC(), varRes.PJPerMAC(), "system pJ/MAC",
			"reduction loops outside output loops spill partial sums to DRAM")
	}

	// Rows 2-4 compare against the same seeded search on the unmodified
	// aggressive Albireo; it runs once.
	ref, err := evalAlbireoLayer(albireo.Default(albireo.Aggressive), &layer, cfg, false)
	if err != nil {
		return nil, err
	}
	refIn := albireo.RoleBreakdown(ref)[albireo.RoleInputConv] / float64(ref.MACs)

	// --- 2. Window-overlap sharing: Albireo's star-coupler delivery. ---
	{
		varRes, err := evalAlbireoLayer(albireo.Default(albireo.Aggressive), &layer, cfg, true)
		if err != nil {
			return nil, err
		}
		varIn := albireo.RoleBreakdown(varRes)[albireo.RoleInputConv] / float64(varRes.MACs)
		out.add("window-overlap input sharing", refIn, varIn, "input-conversion pJ/MAC",
			"without star-coupler overlap delivery every window tap is modulated separately")
	}

	// --- 3. Streaming (light is not storage). ---
	{
		// Hypothetical retaining optical buffer: clear the Streaming flag.
		a, err := albireo.Default(albireo.Aggressive).Build()
		if err != nil {
			return nil, err
		}
		lvl, _, err := a.LevelByName("ModulatedInput")
		if err != nil {
			return nil, err
		}
		lvl.Streaming = false
		lvl.CapacityBits = 1 << 20 // pretend light could be buffered
		best, err := mapper.Search(a, &layer, mapper.Options{
			Budget: cfg.Budget, Seed: cfg.Seed, Workers: cfg.Workers,
			Seeds: mapper.SeedList(albireo.CanonicalMappings(a, &layer)),
		})
		if err != nil {
			return nil, err
		}
		varIn := albireo.RoleBreakdown(best.Result)[albireo.RoleInputConv] / float64(best.Result.MACs)
		out.add("zero-retention optical streaming", refIn, varIn, "input-conversion pJ/MAC",
			"if modulated light could be stored and reused, input conversions would collapse — it cannot")
	}

	// --- 4. Canonical seeding of the mapper. ---
	{
		a, err := albireo.Default(albireo.Aggressive).Build()
		if err != nil {
			return nil, err
		}
		unseeded, err := mapper.Search(a, &layer, mapper.Options{
			Budget: cfg.Budget, Seed: cfg.Seed, Workers: cfg.Workers,
		})
		if err != nil {
			return nil, err
		}
		out.add("canonical mapper seeding", ref.PJPerMAC(), unseeded.Result.PJPerMAC(), "system pJ/MAC",
			"random search alone, at the same budget, versus starting from the architect-intended schedules")
	}
	return out, nil
}

func (r *AblationResult) add(name string, ref, variant float64, metric, note string) {
	row := AblationRow{Name: name, Reference: ref, Variant: variant, Metric: metric, Note: note}
	if ref > 0 {
		row.Ratio = variant / ref
	}
	r.Rows = append(r.Rows, row)
}

// evalAlbireoLayer maps one layer on a (possibly modified) Albireo.
func evalAlbireoLayer(c albireo.Config, l *workload.Layer, cfg Config, disableSharing bool) (*model.Result, error) {
	a, err := c.Build()
	if err != nil {
		return nil, err
	}
	if disableSharing {
		for i := 0; i < a.NumLevels(); i++ {
			a.Level(i).InputOverlapSharing = false
		}
	}
	best, err := mapper.Search(a, l, mapper.Options{
		Budget: cfg.Budget, Seed: cfg.Seed, Workers: cfg.Workers,
		Seeds: mapper.SeedList(albireo.CanonicalMappings(a, l)),
	})
	if err != nil {
		return nil, err
	}
	return best.Result, nil
}

// Table returns the rows as table cells with their column headers and
// alignment (see md.Table).
func (r *AblationResult) Table() (headers []string, align string, rows [][]string) {
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Name,
			fmt.Sprintf("%.4f", row.Reference),
			fmt.Sprintf("%.4f", row.Variant),
			fmt.Sprintf("%.2fx", row.Ratio),
			row.Metric})
	}
	return []string{"Ablation", "Reference", "Variant", "Ratio", "Metric"}, "lrrrl", rows
}

// Render writes the ablation study as text.
func (r *AblationResult) Render(w io.Writer) error {
	fmt.Fprintln(w, "Ablations — how much each modeling mechanism matters (aggressive Albireo, ResNet18 layer2.2.conv1)")
	headers, align, rows := r.Table()
	if err := md.Table(w, headers, align, rows); err != nil {
		return err
	}
	for _, row := range r.Rows {
		fmt.Fprintf(w, "- %s: %s\n", row.Name, row.Note)
	}
	return nil
}
