package model

import (
	"fmt"

	"photoloop/internal/arch"
	"photoloop/internal/mapping"
	"photoloop/internal/workload"
)

// analysis carries the shared state of one evaluation. Its slices live in
// a Scratch and are reused across evaluations.
type analysis struct {
	c *Compiled
	a *arch.Arch
	l *workload.Layer
	m *mapping.Mapping

	bounds     workload.Point
	padded     workload.Point
	actualMACs int64
	paddedMACs int64
	cycles     int64 // padded temporal iterations

	sf        []workload.Point // per-level spatial factors
	ext       []workload.Point // per-level tile extents (padded)
	extClamp  []workload.Point // per-level tile extents clamped to bounds
	instances []int64          // per-level instance counts

	nestBuf []mapping.Loop // full flattened temporal nest, outermost first
	nestCut []int          // nestBuf[:nestCut[i]] is the nest above level i

	// Delta-evaluation state: stationarity factors (refetch, distinct
	// tiles) of a level depend only on the nest above it, so when
	// consecutive evaluations share a prefix of identical outer levels the
	// memoized factors of those levels stay valid. memoMax is the highest
	// level whose memo entries may be reused this evaluation; memoSet
	// tracks which (level, tensor) entries hold a value (bit t = refetch,
	// bit 3+t = distinct tiles).
	memoMax      int
	refetchMemo  [][workload.NumTensors]int64
	distinctMemo [][workload.NumTensors]int64
	memoSet      []uint8

	// distFloor is the lower bound's working array: per level, the number
	// of distinct tiles of each tensor the temporal loops of the levels
	// above walk (see boundFromCore). Unlike the memos it is rebuilt from
	// the mapping's temporal factors alone, so the bound needs no nest.
	distFloor [][workload.NumTensors]float64

	// nestOK counts the leading levels whose nestBuf segments (and memos)
	// still describe the current mapping. Staging defers the nest rebuild
	// to the finishing passes — the bound never walks the nest, so pruned
	// candidates skip it entirely — and tracks here how much of the buffer
	// survives the staged chain since the last finish.
	nestOK int

	// instTotal is the product of all spatial factors (the divisor turning
	// padded MACs into temporal iterations), cached alongside instances so
	// spatially-shared evaluations skip the instance pass too.
	instTotal int64

	// Spatial memo: per-level values that depend only on the spatial
	// factors, refilled by resetCore whenever it re-resolves them. mcast
	// holds each read tensor's multicast factor without the inputs'
	// overlap-sharing factor (that one reads the child's temporal extent,
	// so multicastRange multiplies it in per call); reduce holds the
	// partial-sum merge factor; sfClamp[i] holds the spatial extents of
	// levels >= i clamped to the layer bounds.
	mcast   [][workload.NumTensors]float64
	reduce  []float64
	sfClamp []workload.Point
}

// relevantDims lists, per tensor, the dimensions addressing it — the static
// inner loop of the bound's distinct-tile floors (a dynamic Relevant call
// per (level, dim, tensor) showed up in search profiles). irrelevantDims
// is the complement: the dimensions a spatial fan-out multicasts along.
var relevantDims, irrelevantDims = func() (rel, irr [workload.NumTensors][]workload.Dim) {
	for _, t := range workload.AllTensors() {
		for _, d := range workload.AllDims() {
			if workload.Relevant(t, d) {
				rel[t] = append(rel[t], d)
			} else {
				irr[t] = append(irr[t], d)
			}
		}
	}
	return rel, irr
}()

// init sizes every buffer for an architecture with n storage levels.
func (an *analysis) init(n int) {
	an.sf = make([]workload.Point, n)
	an.ext = make([]workload.Point, n)
	an.extClamp = make([]workload.Point, n)
	an.instances = make([]int64, n)
	an.nestCut = make([]int, n+1)
	an.refetchMemo = make([][workload.NumTensors]int64, n)
	an.distinctMemo = make([][workload.NumTensors]int64, n)
	an.memoSet = make([]uint8, n)
	an.distFloor = make([][workload.NumTensors]float64, n)
	an.mcast = make([][workload.NumTensors]float64, n)
	an.reduce = make([]float64, n)
	an.sfClamp = make([]workload.Point, n)
}

// resetCore re-derives the spatial and extent state of a mapping, reusing
// the analysis' buffers: per-level spatial factors, tile extents (suffix
// products of the per-level factors — integer multiplication, so identical
// to multiplying level by level), instance counts and the padded iteration
// count. Levels below shared keep their spatial factors from the previous
// mapping — the caller guarantees those levels are configured identically.
// sfShared extends that reuse to levels whose spatial configuration alone
// (rigid choices and free factors) matches the previous mapping even
// though their temporal loops differ — the case for every candidate drawn
// under one spatial assignment — skipping the spatial-factor resolution
// and its spatial memo entries and, when it covers all levels, the
// instance pass and the clamped spatial extents too. Tile extents are
// always recomputed: they are suffix products, so any inner change moves
// every outer extent.
//
// It returns the shared count it actually honored: freshly (re)sized
// buffers hold nothing reusable, and the caller must feed the effective
// value to resetNest so the nest prefix is not skipped over zeroed state.
func (an *analysis) resetCore(c *Compiled, m *mapping.Mapping, shared, sfShared int) int {
	a := c.eng.a
	n := a.NumLevels()
	an.c, an.a, an.l, an.m = c, a, c.l, m
	an.bounds = c.bounds
	an.actualMACs = c.actualMACs
	if cap(an.sf) < n {
		an.init(n)
		shared, sfShared = 0, 0
	}
	if sfShared < shared {
		sfShared = shared
	}
	an.sf = an.sf[:n]
	an.ext = an.ext[:n]
	an.extClamp = an.extClamp[:n]
	an.instances = an.instances[:n]
	an.mcast = an.mcast[:n]
	an.reduce = an.reduce[:n]
	an.sfClamp = an.sfClamp[:n]
	run, sfRun := workload.Ones(), workload.Ones()
	for i := n - 1; i >= 0; i-- {
		if i >= sfShared {
			an.sf[i] = m.SpatialAt(a, i)
			an.resolveSpatial(i)
		}
		tl, sf := &m.Levels[i].Temporal, &an.sf[i]
		for d := range run {
			run[d] *= tl[d] * sf[d]
			an.extClamp[i][d] = min(run[d], an.bounds[d])
		}
		an.ext[i] = run
		if sfShared < n {
			for d := range sfRun {
				sfRun[d] *= sf[d]
				an.sfClamp[i][d] = min(sfRun[d], an.bounds[d])
			}
		}
	}
	an.padded = run // the outermost tile extent spans the padded bounds
	an.paddedMACs = an.padded.Product()
	if sfShared < n {
		inst := int64(1)
		for i := 0; i < n; i++ {
			an.instances[i] = inst
			inst *= an.sf[i].Product()
		}
		an.instTotal = inst
	}
	// padded MACs factor exactly into temporal iterations times total
	// spatial instances, so one integer division replaces the product of
	// every level's temporal trip counts.
	an.cycles = an.paddedMACs / an.instTotal
	return shared
}

// resolveSpatial fills level j's multicast and reduction memo entries from
// its spatial factors. Levels with NoMulticast (NoSpatialReduce) provide
// no discount.
func (an *analysis) resolveSpatial(j int) {
	lv := an.a.Level(j)
	sf := &an.sf[j]
	for _, t := range readTensors {
		mc := 1.0
		if !lv.NoMulticast {
			for _, d := range irrelevantDims[t] {
				if sf[d] > 1 {
					mc *= float64(sf[d])
				}
			}
		}
		an.mcast[j][t] = mc
	}
	sr := 1.0
	if !lv.NoSpatialReduce {
		for _, d := range workload.ReductionDims() {
			if sf[d] > 1 {
				sr *= float64(sf[d])
			}
		}
	}
	an.reduce[j] = sr
}

// resetNest rebuilds the flattened temporal nest from level shared down —
// the nest above level i is a prefix of the full nest, so the segments of
// unchanged outer levels are kept in place — and resets the stationarity
// memos accordingly.
func (an *analysis) resetNest(shared int) {
	n := len(an.sf)
	an.nestCut = an.nestCut[:n+1]
	if shared == 0 {
		an.nestBuf = an.nestBuf[:0]
		for i := range an.memoSet {
			an.memoSet[i] = 0
		}
	} else {
		an.nestBuf = an.nestBuf[:an.nestCut[shared]]
	}
	an.memoMax = shared
	for j := shared; j < n; j++ {
		an.nestCut[j] = len(an.nestBuf)
		lm := &an.m.Levels[j]
		for _, d := range lm.Perm {
			if t := lm.Temporal[d]; t > 1 {
				an.nestBuf = append(an.nestBuf, mapping.Loop{Dim: d, Trip: t})
			}
		}
	}
	an.nestCut[n] = len(an.nestBuf)
}

// refetchAt returns refetchFactor(nest above li, t), reusing the memoized
// value when the nest above li is unchanged from the previous evaluation.
func (an *analysis) refetchAt(li int, t workload.Tensor) int64 {
	if li <= an.memoMax && an.memoSet[li]&(1<<t) != 0 {
		return an.refetchMemo[li][t]
	}
	v := refetchFactor(an.nest(li), t)
	an.refetchMemo[li][t] = v
	an.memoSet[li] |= 1 << t
	return v
}

// distinctAt returns distinctTiles(nest above li, t) with the same
// memoization as refetchAt.
func (an *analysis) distinctAt(li int, t workload.Tensor) int64 {
	if li <= an.memoMax && an.memoSet[li]&(8<<t) != 0 {
		return an.distinctMemo[li][t]
	}
	v := distinctTiles(an.nest(li), t)
	an.distinctMemo[li][t] = v
	an.memoSet[li] |= 8 << t
	return v
}

// nest returns the flattened temporal loop nest above level li.
func (an *analysis) nest(li int) []mapping.Loop {
	return an.nestBuf[:an.nestCut[li]]
}

// naiveInputElems counts input words without window-overlap
// deduplication: every (output-pixel, filter-tap) consumer demands its own
// copy.
func naiveInputElems(ext workload.Point) int64 {
	return int64(ext[workload.DimN]) * int64(ext[workload.DimC]) *
		int64(ext[workload.DimP]) * int64(ext[workload.DimR]) *
		int64(ext[workload.DimQ]) * int64(ext[workload.DimS])
}

// refetchFactor implements permutation-aware stationarity: given the
// flattened temporal nest above a tile (outermost first), the tile changes
// once per iteration of (a) every loop over a dimension relevant to the
// tensor and (b) every irrelevant loop that has a relevant loop strictly
// inside it (revisiting evicted tiles). Innermost irrelevant loops keep the
// tile stationary and contribute nothing.
func refetchFactor(nest []mapping.Loop, t workload.Tensor) int64 {
	f := int64(1)
	relevantInside := false
	for i := len(nest) - 1; i >= 0; i-- {
		lp := nest[i]
		if workload.Relevant(t, lp.Dim) {
			f *= int64(lp.Trip)
			relevantInside = true
		} else if relevantInside {
			f *= int64(lp.Trip)
		}
	}
	return f
}

// distinctTiles returns how many distinct tiles of tensor t the nest above
// a level walks: the product of relevant loop trips.
func distinctTiles(nest []mapping.Loop, t workload.Tensor) int64 {
	f := int64(1)
	for _, lp := range nest {
		if workload.Relevant(t, lp.Dim) {
			f *= int64(lp.Trip)
		}
	}
	return f
}

// overlapSharingAt returns the input-sharing factor of the spatial fan-out
// below level j: the ratio of naively duplicated window inputs to the
// distinct inputs in the combined (haloed) footprint, per spatial axis.
// Unstrided 3x3 windows across a 32-wide pixel vector share ~2.8x; strided
// layers share less; stride >= filter (and 1x1 filters) share nothing.
func (an *analysis) overlapSharingAt(j int) float64 {
	childExt := workload.Ones()
	if j+1 < an.a.NumLevels() {
		childExt = an.ext[j+1]
	}
	sharing := 1.0
	// Vertical axis: spatial P with filter extent R.
	if sp := an.sf[j][workload.DimP]; sp > 1 {
		hChild := workload.InputRange(childExt[workload.DimP], childExt[workload.DimR], an.l.StrideH, an.l.DilationH)
		hComb := workload.InputRange(sp*childExt[workload.DimP], childExt[workload.DimR], an.l.StrideH, an.l.DilationH)
		if hComb > 0 {
			sharing *= float64(sp*hChild) / float64(hComb)
		}
	}
	// Horizontal axis: spatial Q with filter extent S.
	if sq := an.sf[j][workload.DimQ]; sq > 1 {
		wChild := workload.InputRange(childExt[workload.DimQ], childExt[workload.DimS], an.l.StrideW, an.l.DilationW)
		wComb := workload.InputRange(sq*childExt[workload.DimQ], childExt[workload.DimS], an.l.StrideW, an.l.DilationW)
		if wComb > 0 {
			sharing *= float64(sq*wChild) / float64(wComb)
		}
	}
	if sharing < 1 {
		sharing = 1
	}
	return sharing
}

// multicastRange multiplies the multicast factors of levels [from, to):
// the one-to-many distribution factor of tensor t provided by each
// level's spatial fan-out — the spatial factors over dimensions
// irrelevant to t, times the window-overlap sharing factor for inputs when
// the level supports it.
func (an *analysis) multicastRange(from, to int, t workload.Tensor) float64 {
	mc := 1.0
	for j := from; j < to; j++ {
		if lv := an.a.Level(j); t == workload.Inputs && lv.InputOverlapSharing && !lv.NoMulticast {
			mc *= an.mcast[j][t] * an.overlapSharingAt(j)
		} else {
			mc *= an.mcast[j][t]
		}
	}
	return mc
}

// spatialReduceRange multiplies the partial-sum merge factors of levels
// [from, to): the spatial factors over reduction dimensions.
func (an *analysis) spatialReduceRange(from, to int) float64 {
	sr := 1.0
	for j := from; j < to; j++ {
		sr *= an.reduce[j]
	}
	return sr
}

// readTensorUsage computes the traffic of a read operand (weights or
// inputs) along its keep chain, writing into usages (one zeroed record per
// keep level, provided by the caller).
func (an *analysis) readTensorUsage(t workload.Tensor, usages []Usage) error {
	chain := an.c.eng.keeps[t]
	for pos, li := range chain {
		lv := an.a.Level(li)
		u := &usages[pos]
		u.Level = lv.Name
		u.LevelIndex = li
		u.Tensor = t
		u.Instances = an.instances[li]
		u.TileElems = an.l.TileElems(t, an.extClamp[li])
		if lv.Streaming {
			if pos != len(chain)-1 {
				return fmt.Errorf("model: streaming level %s must be the innermost keeper of %v", lv.Name, t)
			}
			// Zero retention: the working set is refilled every cycle.
			// With window-overlap sharing, one converted input serves
			// every window position that touches it (the halo formula
			// deduplicates); without it, each (pixel, tap) consumer
			// needs its own conversion.
			wsExt := an.sfClamp[li]
			var ws int64
			if t == workload.Inputs && !lv.InputOverlapSharing {
				ws = naiveInputElems(wsExt)
			} else {
				ws = an.l.TileElems(t, wsExt)
			}
			u.Fills = float64(ws) * float64(an.cycles) * float64(u.Instances)
		} else if pos > 0 {
			u.Fills = float64(u.TileElems) * float64(an.refetchAt(li, t)) * float64(u.Instances)
		}
		// Writes into the level are its fills.
		u.Writes = u.Fills
		if pos > 0 {
			parent := chain[pos-1]
			u.FillsDistinct = u.Fills / an.multicastRange(parent, li, t)
		}
	}
	// Reads out of each keeper: distinct fills of the next-inner keeper,
	// plus compute consumption at the innermost keeper.
	for pos := range usages {
		if pos+1 < len(usages) {
			usages[pos].Reads += usages[pos+1].FillsDistinct
		}
	}
	last := len(usages) - 1
	li := chain[last]
	consumption := float64(an.actualMACs) / an.multicastRange(li, an.a.NumLevels(), t)
	usages[last].Reads += consumption
	return nil
}

// outputUsage computes the traffic of the output tensor along its keep
// chain: per-MAC updates arrive at the innermost keeper (discounted by
// spatial reduction below it), tiles drain upward on completion, and
// partial tiles evicted by reduction loops above refill downward. It
// writes into usages (one zeroed record per keep level).
func (an *analysis) outputUsage(usages []Usage) error {
	t := workload.Outputs
	chain := an.c.eng.keeps[t]
	for pos, li := range chain {
		lv := an.a.Level(li)
		u := &usages[pos]
		u.Level = lv.Name
		u.LevelIndex = li
		u.Tensor = t
		u.Instances = an.instances[li]
		u.TileElems = an.l.TileElems(t, an.extClamp[li])
		if lv.Streaming {
			return fmt.Errorf("model: output keeper %s cannot be a streaming level", lv.Name)
		}
	}

	// Arrivals at the innermost keeper: one partial per MAC, merged by
	// spatial reduction below it.
	last := len(usages) - 1
	liLast := chain[last]
	arrivals := float64(an.actualMACs) / an.spatialReduceRange(liLast, an.a.NumLevels())
	an.chargeArrivals(&usages[last], arrivals, chain[last])

	// Drains from inner keepers to outer ones. Partial sums always merge
	// upward (fresh-start accumulation): an evicted partial tile is never
	// refilled — the parent keeper absorbs each partial with a
	// read-modify-write update, which chargeArrivals accounts for.
	for pos := last; pos > 0; pos-- {
		li := chain[pos]
		u := &usages[pos]
		changes := an.refetchAt(li, t)
		u.Drains = float64(u.TileElems) * float64(changes) * float64(u.Instances)
		// Reading the tile out to drain it.
		u.Reads += u.Drains
		parent := chain[pos-1]
		u.DrainsMerged = u.Drains / an.spatialReduceRange(parent, li)
		an.chargeArrivals(&usages[pos-1], u.DrainsMerged, parent)
	}
	return nil
}

// chargeArrivals splits words arriving at an output keeper into first
// writes (one per element per tile residency) and read-modify-write
// updates.
func (an *analysis) chargeArrivals(u *Usage, words float64, li int) {
	residencies := float64(an.distinctAt(li, workload.Outputs)) * float64(u.Instances)
	firstWrites := float64(u.TileElems) * residencies
	if firstWrites > words {
		firstWrites = words
	}
	u.Arrivals += words
	u.Writes += firstWrites
	u.Updates += words - firstWrites
}
