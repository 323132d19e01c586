// Package model is the analytical dataflow engine at the heart of the
// reproduction: given an architecture, a layer and a mapping it derives —
// without simulation — per-level access counts (fills, reads, updates,
// drains), cross-domain conversion counts, compute cycles, utilization,
// energy by component/action/tensor, and area. The accounting rules follow
// Timeloop/CiMLoop: permutation-aware tile stationarity, spatial multicast
// and reduction discounts, window-overlap input sharing, and streaming
// (zero-retention) stations for optical signals. Correctness of the
// counting rules is anchored by the brute-force interpreter in
// internal/refsim.
package model

import (
	"fmt"

	"photoloop/internal/workload"
)

// Usage records the traffic of one tensor at one storage level,
// aggregated over all level instances, in words.
type Usage struct {
	// Level is the storage level name.
	Level string
	// LevelIndex is the level's index (0 = outermost).
	LevelIndex int
	// Tensor is the operand.
	Tensor workload.Tensor
	// TileElems is the per-instance resident tile footprint in elements
	// (clamped to real data).
	TileElems int64
	// Instances is the number of level instances.
	Instances int64
	// Fills counts words written into this level from its parent keeper
	// (read operands) — destination-side basis.
	Fills float64
	// FillsDistinct counts distinct words read from the parent keeper to
	// serve those fills (post-multicast / post-overlap-sharing).
	FillsDistinct float64
	// Reads counts words read out of this level (serving child fills,
	// compute consumption, and upward drains).
	Reads float64
	// Writes counts plain writes into this level (fills for read
	// operands; first-arrival output words).
	Writes float64
	// Updates counts read-modify-write accumulations into this level
	// (outputs only, post spatial-reduction).
	Updates float64
	// Arrivals counts output words arriving from below (post
	// spatial-reduction); Writes+Updates minus refills.
	Arrivals float64
	// Drains counts output words sent up from this level toward its
	// parent keeper — source-side basis (pre spatial-reduction).
	Drains float64
	// DrainsMerged counts the post-reduction words arriving at the
	// parent keeper.
	DrainsMerged float64
}

// EnergyItem is one line of the energy ledger: a component action charged
// some number of times on behalf of a tensor at a level.
type EnergyItem struct {
	// Level is the storage level (or "compute") where the charge arose.
	Level string
	// Component is the component instance name.
	Component string
	// Class is the component class ("sram", "adc", "mzm", ...).
	Class string
	// Action is the charged action.
	Action string
	// Tensor names the operand on whose behalf the charge arose ("" for
	// per-MAC compute charges).
	Tensor string
	// Count is the number of actions.
	Count float64
	// TotalPJ is Count times the per-action energy.
	TotalPJ float64
}

// Result is a complete evaluation of one layer on one mapping.
type Result struct {
	// Layer is the evaluated layer's name.
	Layer string
	// MACs is the real work (excludes padding).
	MACs int64
	// PaddedMACs includes mapping padding (idle compute slots).
	PaddedMACs int64
	// ComputeCycles is the padded temporal iteration count.
	ComputeCycles int64
	// Cycles is the schedule length including bandwidth stalls.
	Cycles float64
	// BottleneckLevel names the bandwidth-limiting level ("" if compute
	// bound).
	BottleneckLevel string
	// Utilization is MACs / PaddedMACs.
	Utilization float64
	// MACsPerCycle is achieved throughput: MACs / Cycles.
	MACsPerCycle float64
	// Usage lists per-level per-tensor traffic.
	Usage []Usage
	// Energy is the full energy ledger.
	Energy []EnergyItem
	// TotalPJ sums the ledger.
	TotalPJ float64
	// AreaUM2 is the architecture area (mapping independent).
	AreaUM2 float64
}

// reset zeroes the result for reuse, keeping the Usage and Energy backing
// arrays so the compiled fast path stays allocation free.
func (r *Result) reset() {
	usage, energy := r.Usage[:0], r.Energy[:0]
	*r = Result{Usage: usage, Energy: energy}
}

// Clone deep-copies the result (the mapper retains clones of scratch-owned
// results when they become the incumbent best).
func (r *Result) Clone() *Result {
	out := *r
	out.Usage = append([]Usage(nil), r.Usage...)
	out.Energy = append([]EnergyItem(nil), r.Energy...)
	return &out
}

// PJPerMAC returns energy per real MAC.
func (r *Result) PJPerMAC() float64 {
	if r.MACs == 0 {
		return 0
	}
	return r.TotalPJ / float64(r.MACs)
}

// UsageOf returns the usage record for (level name, tensor), or nil.
func (r *Result) UsageOf(level string, t workload.Tensor) *Usage {
	for i := range r.Usage {
		if r.Usage[i].Level == level && r.Usage[i].Tensor == t {
			return &r.Usage[i]
		}
	}
	return nil
}

// EnergyBy groups the ledger by an arbitrary key function and returns
// summed picojoules per key.
func (r *Result) EnergyBy(key func(*EnergyItem) string) map[string]float64 {
	out := map[string]float64{}
	for i := range r.Energy {
		out[key(&r.Energy[i])] += r.Energy[i].TotalPJ
	}
	return out
}

// EnergyByComponent sums pJ per component name.
func (r *Result) EnergyByComponent() map[string]float64 {
	return r.EnergyBy(func(e *EnergyItem) string { return e.Component })
}

// EnergyOf sums pJ for a specific (class, tensor) pair; tensor "" matches
// any.
func (r *Result) EnergyOf(class, tensor string) float64 {
	var sum float64
	for i := range r.Energy {
		e := &r.Energy[i]
		if e.Class == class && (tensor == "" || e.Tensor == tensor) {
			sum += e.TotalPJ
		}
	}
	return sum
}

// String summarizes the result in one line.
func (r *Result) String() string {
	return fmt.Sprintf("%s: %.3f pJ/MAC, %.1f MACs/cycle, util %.1f%%",
		r.Layer, r.PJPerMAC(), r.MACsPerCycle, 100*r.Utilization)
}
