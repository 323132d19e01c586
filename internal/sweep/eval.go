package sweep

import (
	"errors"
	"fmt"

	"photoloop/internal/fidelity"
	"photoloop/internal/mapper"
	"photoloop/internal/spec"
	"photoloop/internal/workload"
)

// EvalRequest is one architecture × network evaluation: the request body
// of `POST /v1/eval` and the engine behind `photoloop eval`. Exactly one
// of Arch/Albireo/Preset selects the architecture, and exactly one of
// Network/Inline selects the workload. With no Mapping, every layer is
// mapper-searched; with one, the fixed schedule is evaluated as-is.
//
// A request is a one-point sweep: Eval maps it onto a zero-axis Spec
// (base, one workload, one objective, the search knobs) and evaluates
// that point through the same code as every sweep and study point, so a
// study row and the corresponding `photoloop eval` answer are
// bit-identical.
type EvalRequest struct {
	// Arch is a raw architecture spec document.
	Arch *spec.ArchSpec `json:"arch,omitempty"`
	// Albireo selects the paper's Albireo instantiation instead.
	Albireo *AlbireoBase `json:"albireo,omitempty"`
	// Preset selects a named architecture from the preset library
	// (presets.ByName) instead.
	Preset string `json:"preset,omitempty"`
	// Network names a zoo network; Inline embeds one.
	Network string            `json:"network,omitempty"`
	Inline  *workload.Network `json:"inline,omitempty"`
	// Layer restricts the evaluation to one named layer.
	Layer string `json:"layer,omitempty"`
	// Batch is the batch size (default 1).
	Batch int `json:"batch,omitempty"`
	// Objective is the mapper objective (default "energy").
	Objective string `json:"objective,omitempty"`
	// Budget, Seed and Workers (the search's lane count) tune the
	// per-layer search (0 = mapper defaults; Workers above 64 is
	// rejected).
	Budget  int   `json:"budget,omitempty"`
	Seed    int64 `json:"seed,omitempty"`
	Workers int   `json:"workers,omitempty"`
	// Mapping evaluates this fixed schedule on every selected layer
	// instead of searching.
	Mapping *spec.MappingSpec `json:"mapping,omitempty"`
	// Fidelity, when set, additionally runs the analog fidelity rollup
	// (package fidelity) over each evaluated mapping. `{}` uses the
	// physics defaults; energy/delay/area are bit-identical either way.
	Fidelity *fidelity.Spec `json:"fidelity,omitempty"`
}

// EvalResponse is the evaluation result: per-layer outcomes plus the
// network totals, and the architecture's mapping-independent properties.
type EvalResponse struct {
	Arch             string         `json:"arch"`
	Network          string         `json:"network"`
	AreaUM2          float64        `json:"area_um2"`
	PeakMACsPerCycle int64          `json:"peak_macs_per_cycle"`
	Layers           []LayerOutcome `json:"layers"`
	// Totals across the evaluated layers.
	MACs         int64   `json:"macs"`
	Cycles       float64 `json:"cycles"`
	TotalPJ      float64 `json:"total_pj"`
	PJPerMAC     float64 `json:"pj_per_mac"`
	MACsPerCycle float64 `json:"macs_per_cycle"`
	Utilization  float64 `json:"utilization"`
	Evaluations  int     `json:"evaluations"`
	// EffectiveBits, SNRDB and AccuracyLossPct carry the MAC-weighted
	// analog fidelity rollup when the request set Fidelity.
	EffectiveBits   float64 `json:"effective_bits,omitempty"`
	SNRDB           float64 `json:"snr_db,omitempty"`
	AccuracyLossPct float64 `json:"accuracy_loss_pct,omitempty"`
	// Pruned, DeltaEvals and FullEvals sum the mapper's search statistics
	// across the evaluated layers (zero for fixed-mapping requests).
	Pruned     int `json:"pruned,omitempty"`
	DeltaEvals int `json:"delta_evals,omitempty"`
	FullEvals  int `json:"full_evals,omitempty"`
}

// Eval runs one evaluation request as a one-point sweep: the request maps
// onto a zero-axis Spec, and its single point is evaluated by the same
// code as every sweep and study point. An optional shared cache
// deduplicates searches across requests (the HTTP server passes its
// process-wide cache; pass nil for a one-shot evaluation).
func Eval(req *EvalRequest, cache *mapper.Cache) (*EvalResponse, error) {
	sp := Spec{
		Base:          Base{Arch: req.Arch, Albireo: req.Albireo, Preset: req.Preset},
		Workloads:     []Workload{{Network: req.Network, Inline: req.Inline, Batch: req.Batch}},
		Budget:        req.Budget,
		Seed:          req.Seed,
		SearchWorkers: req.Workers,
		Fidelity:      req.Fidelity,
		IncludeLayers: true,
	}
	if req.Objective != "" {
		sp.Objectives = []string{req.Objective}
	}
	if sp.Base.set() != 1 {
		return nil, errors.New("sweep: eval request must set exactly one of arch, albireo or preset")
	}
	ev, err := NewEvaluator(sp, Options{Cache: cache})
	if err != nil {
		// A request has no spec positions: it names itself for a bad
		// preset and reports any other positioned rejection by its cause.
		var se *specError
		switch {
		case !errors.As(err, &se):
			return nil, err
		case se.pos == "base":
			return nil, fmt.Errorf("sweep: eval request: %w", se.err)
		default:
			return nil, se.err
		}
	}
	job := ev.job(0, ev.base, 0, 0)
	job.mapping = req.Mapping
	if req.Layer != "" {
		var layers []workload.Layer
		for _, l := range job.network.Layers {
			if l.Name == req.Layer {
				layers = append(layers, l)
			}
		}
		if len(layers) == 0 {
			return nil, fmt.Errorf("sweep: network %s has no layer %q", job.netName, req.Layer)
		}
		job.network.Layers = layers
	}
	var ps [1]Point
	if err := ev.evaluate([]pointJob{job}, ps[:]); err != nil {
		return nil, err
	}
	p := &ps[0]
	return &EvalResponse{
		Arch: p.Arch, Network: p.Network, AreaUM2: p.AreaUM2, PeakMACsPerCycle: p.PeakMACsPerCycle,
		Layers: p.Layers, MACs: p.MACs, Cycles: p.Cycles, TotalPJ: p.TotalPJ, PJPerMAC: p.PJPerMAC,
		MACsPerCycle: p.MACsPerCycle, Utilization: p.Utilization, Evaluations: p.Evaluations,
		EffectiveBits: p.EffectiveBits, SNRDB: p.SNRDB, AccuracyLossPct: p.AccuracyLossPct,
		Pruned: p.Pruned, DeltaEvals: p.DeltaEvals, FullEvals: p.FullEvals,
	}, nil
}
