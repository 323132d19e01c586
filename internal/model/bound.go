package model

import (
	"math"

	"photoloop/internal/mapping"
	"photoloop/internal/workload"
)

// Bound is an admissible lower bound on a mapping's evaluation: no
// successful full evaluation of the same mapping under the same options can
// produce a smaller energy or fewer cycles. The mapper uses it to discard
// candidates that provably cannot beat its incumbent without paying for a
// full evaluation.
type Bound struct {
	// EnergyPJ is a lower bound on Result.TotalPJ.
	EnergyPJ float64
	// Cycles is a lower bound on Result.Cycles: the exact compute-bound
	// schedule length (bandwidth stalls can only lengthen it).
	Cycles float64
}

// lbSafety shrinks the energy bound by one part in 10^12 to absorb
// floating-point non-associativity: several of the bound's terms equal the
// evaluator's charges exactly in real arithmetic, but are accumulated in a
// different order, and the bound must never round above a true score (a
// candidate tied with the incumbent can still win its tie-break). The
// cycle bound needs no slack — both sides are the same int64 converted.
const lbSafety = 1 - 1e-12

// lbLevel holds one storage level's precomputed admissible energy floors,
// in picojoules per word moved. Unresolvable component references
// contribute zero (evaluations charging them fail outright, so the bound
// never overshoots a successful evaluation).
type lbLevel struct {
	readPJ       float64 // access read energy (0 when absent)
	arrivalMinPJ float64 // cheapest access charge per arriving output word
	// Per destination-side fill word: access write plus the non-PerDistinct
	// converter chain. Per distinct (post-multicast) fill word: the
	// PerDistinct chain. Per arriving output word: the UpdateVia chain
	// (charged on the same basis either way). Per source-side drained word:
	// access read plus the non-PerDistinct chain; per merged drained word:
	// the PerDistinct chain.
	fillUnit   [workload.NumTensors]float64
	fillDist   [workload.NumTensors]float64
	updateUnit [workload.NumTensors]float64
	drainUnit  [workload.NumTensors]float64
	drainDist  [workload.NumTensors]float64
}

// buildBoundTables precomputes the per-level energy floors and the per-MAC
// compute energy backing Compiled.LowerBound. Called once from NewEngine.
func (e *Engine) buildBoundTables() {
	refPJ := func(r *resolvedRef) float64 {
		if r.err != nil {
			return 0
		}
		return r.pj * r.cnt
	}
	e.lbLevels = make([]lbLevel, len(e.levels))
	for i := range e.levels {
		le := &e.levels[i]
		lb := &e.lbLevels[i]
		var writePJ, updatePJ float64
		if le.hasAccess {
			lb.readPJ = refPJ(&le.access[0])
			writePJ = refPJ(&le.access[1])
			updatePJ = refPJ(&le.access[2])
			lb.arrivalMinPJ = min(writePJ, updatePJ)
		}
		for _, t := range workload.AllTensors() {
			lb.fillUnit[t] = writePJ    // writes into the level are its fills
			lb.drainUnit[t] = lb.readPJ // draining reads the tile out
			for j := range le.fill[t] {
				if le.fill[t][j].perDistinct {
					lb.fillDist[t] += refPJ(&le.fill[t][j])
				} else {
					lb.fillUnit[t] += refPJ(&le.fill[t][j])
				}
			}
			for j := range le.update[t] {
				lb.updateUnit[t] += refPJ(&le.update[t][j])
			}
			for j := range le.drain[t] {
				if le.drain[t][j].perDistinct {
					lb.drainDist[t] += refPJ(&le.drain[t][j])
				} else {
					lb.drainUnit[t] += refPJ(&le.drain[t][j])
				}
			}
		}
	}
	e.macUnitPJ = 0
	for i := range e.perMAC {
		e.macUnitPJ += refPJ(&e.perMAC[i])
	}
}

// LowerBound computes a cheap admissible lower bound on the evaluation of
// mapping m: Bound.EnergyPJ <= Result.TotalPJ and Bound.Cycles <=
// Result.Cycles of any successful EvaluateInto of the same mapping and
// options. It needs only the mapping's spatial configuration, tile extents
// and padded iteration count — no loop-nest walk, no per-usage charging —
// which makes it several times cheaper than a full evaluation. Compiled.Stage
// produces the identical bound fused with the evaluation's own core
// resolution, which is how the mapper hot loop obtains it.
//
// The bound combines terms that are exact (the compute-bound cycle count,
// per-MAC compute energy, streaming-station refill traffic, compute
// consumption reads, and output arrivals at the innermost keeper, all of
// which depend only on core quantities) with distinct-tile floors for the
// rest of the data movement: every non-streaming keeper must fill each
// distinct tile the temporal loops above it walk at least once (the
// permutation-aware refetch factor is at least the permutation-independent
// distinct-tile count), and every output keeper drains each such tile at
// least once. Schedules lose energy to refetch above those floors, never
// below them.
//
// The bound counts the same per-action energy an evaluation charges;
// static power is a component property hashed into the architecture
// fingerprint, and neither the bound nor an evaluation charges it.
//
// For mappings whose full evaluation would fail, the returned bound is
// meaningless — the mapper rejects those candidates either way.
// Admissibility is guarded by the randomized property test
// TestLowerBoundAdmissible.
func (c *Compiled) LowerBound(s *Scratch, m *mapping.Mapping, opts Options) Bound {
	an := &s.lb
	an.resetCore(c, m, 0, 0)
	return c.boundFromCoreLimited(an, math.Inf(1))
}

// boundFromCoreLimited derives the admissible bound from an analysis whose
// core state (spatial factors, extents, instances) is already resolved for
// the mapping — either LowerBound's nest-free working set or a staged full
// evaluation. It must not touch the analysis' nest or memo state: the
// LowerBound path never builds them, and Stage defers theirs.
//
// limitPJ is an early-exit threshold: as soon as the partial sum alone
// proves the bound exceeds it, accumulation stops and the partial bound is
// returned. Every term is non-negative, so the partial sum is itself
// admissible and any "bound > limitPJ" comparison decides identically to
// the full bound. math.Inf(1) disables the exit and yields the exact bound.
func (c *Compiled) boundFromCoreLimited(an *analysis, limitPJ float64) Bound {
	eng := c.eng
	a := eng.a
	n := a.NumLevels()
	pj := c.macFloorPJ

	// First the exact cycle-scaled terms — streaming-station refills and
	// compute consumption reads. They need no distinct-tile floors, and on
	// conversion-heavy architectures they dominate: a candidate with an
	// oversized schedule usually exceeds the early-exit threshold right
	// here, before any floor work.
	for _, t := range readTensors {
		chain := eng.keeps[t]
		if len(chain) == 0 {
			continue
		}
		last := chain[len(chain)-1]
		if r := eng.lbLevels[last].readPJ; r > 0 {
			// Compute consumption out of the innermost keeper (exact).
			pj += r * float64(an.actualMACs) / an.multicastRange(last, n, t)
		}
		if lv := a.Level(last); lv.Streaming && len(chain) > 1 {
			// Zero retention refills every cycle (exact; mirrors
			// readTensorUsage).
			lb := &eng.lbLevels[last]
			wsExt := an.sfClamp[last]
			var ws int64
			if t == workload.Inputs && !lv.InputOverlapSharing {
				ws = naiveInputElems(wsExt)
			} else {
				ws = an.l.TileElems(t, wsExt)
			}
			fills := float64(ws) * float64(an.cycles) * float64(an.instances[last])
			if u := lb.fillUnit[t]; u > 0 {
				pj += fills * u
			}
			parent := chain[len(chain)-2]
			if du := lb.fillDist[t] + eng.lbLevels[parent].readPJ; du > 0 {
				pj += fills / an.multicastRange(parent, last, t) * du
			}
		}
		if pj*lbSafety > limitPJ {
			return Bound{EnergyPJ: pj * lbSafety, Cycles: float64(an.cycles)}
		}
	}

	// Distinct-tile floors: the temporal loops above level li walk at least
	// product(relevant trips of levels < li) distinct tiles of tensor t, and
	// the permutation-aware refetch factor the evaluator charges is at least
	// that (every distinct tile is fetched at least once, whatever the loop
	// order does on top). The products depend only on the per-level temporal
	// factors, so the floors need no nest walk. Each level's trips multiply
	// as integers, then into the float64 running product once. Every
	// partial product is an integer no larger than the padded MAC count,
	// far below 2^53, so each multiply is exact and the grouping cannot
	// change a bit; were one ever to round, lbSafety would absorb it.
	var cum [workload.NumTensors]float64
	for _, t := range workload.AllTensors() {
		cum[t] = 1
	}
	for j := 0; j < n; j++ {
		an.distFloor[j] = cum
		tl := &an.m.Levels[j].Temporal
		for _, t := range workload.AllTensors() {
			p := int64(1)
			for _, d := range relevantDims[t] {
				if tr := tl[d]; tr > 1 {
					p *= int64(tr)
				}
			}
			cum[t] *= float64(p)
		}
	}

	for _, t := range readTensors {
		chain := eng.keeps[t]
		for pos := 1; pos < len(chain); pos++ {
			if pj*lbSafety > limitPJ {
				return Bound{EnergyPJ: pj * lbSafety, Cycles: float64(an.cycles)}
			}
			li, parent := chain[pos], chain[pos-1]
			if a.Level(li).Streaming && pos == len(chain)-1 {
				continue // charged exactly in the first pass
			}
			lb := &eng.lbLevels[li]
			// Distinct-tile floor: each of the distinct tiles the loops
			// above walk fills at least once per instance.
			fills := float64(an.l.TileElems(t, an.extClamp[li])) * an.distFloor[li][t] *
				float64(an.instances[li])
			if u := lb.fillUnit[t]; u > 0 {
				pj += fills * u
			}
			if du := lb.fillDist[t] + eng.lbLevels[parent].readPJ; du > 0 {
				// Distinct words on the shared side of the distribution:
				// the PerDistinct converters plus the parent's read per
				// distinct word served.
				pj += fills / an.multicastRange(parent, li, t) * du
			}
		}
	}

	// Outputs: exact arrivals at the innermost keeper, refetch-free drain
	// floors on the way up, and the cheaper of write/update per arriving
	// word at every keeper.
	if chain := eng.keeps[workload.Outputs]; len(chain) > 0 {
		t := workload.Outputs
		arrivals := float64(an.actualMACs) / an.spatialReduceRange(chain[len(chain)-1], n)
		for pos := len(chain) - 1; ; pos-- {
			if pj*lbSafety > limitPJ {
				return Bound{EnergyPJ: pj * lbSafety, Cycles: float64(an.cycles)}
			}
			li := chain[pos]
			lb := &eng.lbLevels[li]
			pj += arrivals * (lb.updateUnit[t] + lb.arrivalMinPJ)
			if pos == 0 {
				break
			}
			drains := float64(an.l.TileElems(t, an.extClamp[li])) * an.distFloor[li][t] *
				float64(an.instances[li])
			if u := lb.drainUnit[t]; u > 0 {
				pj += drains * u
			}
			merged := drains / an.spatialReduceRange(chain[pos-1], li)
			if du := lb.drainDist[t]; du > 0 {
				pj += merged * du
			}
			arrivals = merged // floor on what arrives at the parent keeper
		}
	}

	return Bound{EnergyPJ: pj * lbSafety, Cycles: float64(an.cycles)}
}
