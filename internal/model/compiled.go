package model

import (
	"fmt"

	"photoloop/internal/arch"
	"photoloop/internal/components"
	"photoloop/internal/mapping"
	"photoloop/internal/workload"
)

// resolvedRef is one component action with its energy resolved ahead of
// time, replacing the string-keyed library lookups of the interpreted path.
// Resolution failures (unknown component, unsupported action) are deferred:
// the error surfaces only if the action is ever charged with a non-zero
// count, matching the lazy semantics of the interpreted evaluator.
type resolvedRef struct {
	pj          float64 // energy per action, pJ
	cnt         float64 // actions per word (ActionRef.Count())
	perDistinct bool
	err         error

	// Ledger metadata (used only when Options.FullLedger is set).
	level     string
	component string
	class     string
	action    string
	tensor    string
}

// levelEnergy is the resolved per-level energy table: storage access
// actions and converter chains indexed by tensor instead of map lookups.
type levelEnergy struct {
	hasAccess bool
	access    [3]resolvedRef // read, write, update
	fill      [workload.NumTensors][]resolvedRef
	update    [workload.NumTensors][]resolvedRef
	drain     [workload.NumTensors][]resolvedRef
}

// Engine caches everything about an architecture that no mapping can
// change: the component areas, per-tensor keep chains, and per-action
// energies resolved out of the string-keyed component library. Build one
// per architecture and share it across layers, mappings and goroutines —
// it is immutable after construction.
type Engine struct {
	a     *arch.Arch
	area  float64
	keeps [workload.NumTensors][]int

	levels []levelEnergy
	perMAC []resolvedRef

	// Lower-bound tables (see bound.go): per-level admissible energy
	// floors per word moved, and the per-MAC compute energy.
	lbLevels  []lbLevel
	macUnitPJ float64
}

// NewEngine resolves the architecture's mapping-independent invariants.
// It fails only where every evaluation would fail: an unresolvable
// component in the area sum.
func NewEngine(a *arch.Arch) (*Engine, error) {
	area, err := a.Area()
	if err != nil {
		return nil, err
	}
	e := &Engine{a: a, area: area}
	for _, t := range workload.AllTensors() {
		e.keeps[t] = a.KeepLevels(t)
	}

	resolve := func(level, component, action, tensor string) resolvedRef {
		rr := resolvedRef{
			cnt:   1,
			level: level, component: component, action: action, tensor: tensor,
		}
		c, err := a.Lib.Get(component)
		if err != nil {
			rr.err = err
			return rr
		}
		rr.class = c.Class()
		pj, err := c.Energy(action)
		if err != nil {
			rr.err = err
			return rr
		}
		rr.pj = pj
		return rr
	}
	resolveChain := func(level string, refs []arch.ActionRef, tensor string) []resolvedRef {
		if len(refs) == 0 {
			return nil
		}
		out := make([]resolvedRef, len(refs))
		for i, r := range refs {
			out[i] = resolve(level, r.Component, r.Action, tensor)
			out[i].cnt = r.Count()
			out[i].perDistinct = r.PerDistinct
		}
		return out
	}

	e.levels = make([]levelEnergy, a.NumLevels())
	for i := range e.levels {
		lv := a.Level(i)
		le := &e.levels[i]
		if lv.AccessComponent != "" {
			le.hasAccess = true
			for j, action := range [3]string{components.ActionRead, components.ActionWrite, components.ActionUpdate} {
				le.access[j] = resolve(lv.Name, lv.AccessComponent, action, "")
			}
		}
		for _, t := range workload.AllTensors() {
			ts := t.String()
			le.fill[t] = resolveChain(lv.Name, lv.FillVia[t], ts)
			le.update[t] = resolveChain(lv.Name, lv.UpdateVia[t], ts)
			le.drain[t] = resolveChain(lv.Name, lv.DrainVia[t], ts)
		}
	}
	e.perMAC = make([]resolvedRef, len(a.Compute.PerMAC))
	for i, r := range a.Compute.PerMAC {
		e.perMAC[i] = resolve("compute", r.Component, r.Action, "")
		e.perMAC[i].cnt = r.Count()
	}
	e.buildBoundTables()
	return e, nil
}

// Arch returns the architecture the engine was built for.
func (e *Engine) Arch() *arch.Arch { return e.a }

// Compiled is an evaluation engine specialized to one (architecture,
// layer) pair: the engine's resolved tables plus the layer's bounds and
// MAC count. It is immutable and safe for concurrent use; per-goroutine
// mutable state lives in Scratch.
type Compiled struct {
	eng        *Engine
	l          *workload.Layer
	bounds     workload.Point
	actualMACs int64

	// macFloorPJ is the mapping-independent energy floor: every evaluation
	// charges at least the per-MAC compute actions for every real MAC.
	macFloorPJ float64
}

// Compile builds a compiled engine for one architecture and layer.
func Compile(a *arch.Arch, l *workload.Layer) (*Compiled, error) {
	e, err := NewEngine(a)
	if err != nil {
		return nil, err
	}
	return e.Compile(l)
}

// Compile specializes the engine to a layer. It is cheap — per-layer
// searches over thousands of mappings share one Compiled.
func (e *Engine) Compile(l *workload.Layer) (*Compiled, error) {
	c := &Compiled{eng: e, l: l, bounds: l.Bounds(), actualMACs: l.MACs()}
	c.macFloorPJ = float64(c.actualMACs) * e.macUnitPJ
	return c, nil
}

// Engine returns the underlying per-architecture engine.
func (c *Compiled) Engine() *Engine { return c.eng }

// Scratch holds the reusable working memory of one evaluation: the
// per-level analysis arrays and the flattened loop-nest buffer. One
// Scratch serves one goroutine; reusing it across EvaluateInto calls makes
// the fast path allocation free. Its buffers resize to any architecture,
// so a zero-value Scratch (or one built for another engine) works too.
//
// A Scratch also carries state between consecutive evaluations: the
// analysis of the last staged or evaluated mapping (which Stage reuses for
// shared-prefix delta resolution) and the LowerBound working set.
type Scratch struct {
	an      analysis
	lb      analysis // LowerBound's core-only working set (no nest walk)
	anValid bool     // s.an holds a fully resolved core+nest state
}

// NewScratch allocates working memory sized for the engine's architecture.
func (e *Engine) NewScratch() *Scratch {
	n := e.a.NumLevels()
	s := &Scratch{}
	s.an.init(n)
	s.lb.init(n)
	return s
}

var readTensors = [...]workload.Tensor{workload.Weights, workload.Inputs}

// EvaluateInto is the allocation-free fast path of the analytical model:
// it evaluates mapping m into res, reusing the scratch buffers and res's
// own backing arrays. Unless opts.FullLedger is set, the itemized Energy
// ledger is skipped and only the aggregate TotalPJ is produced — every
// other Result field is identical to Evaluate's.
func (c *Compiled) EvaluateInto(s *Scratch, m *mapping.Mapping, res *Result, opts Options) error {
	if _, err := c.stageCore(s, m, opts, 0, 0); err != nil {
		return err
	}
	return c.finishStaged(s, res, opts)
}

// Stage is the first half of a delta evaluation fused with the pruning
// bound: it resolves mapping m's core state (spatial factors and tile
// extents — the loop-nest build is deferred to FinishStaged, which pruned
// candidates never pay for) into the scratch and returns the admissible
// lower bound derived from that state, bit-identical to LowerBound's. A
// staged scratch serves a later FinishStaged, so the mapper's bound gate
// and the surviving candidates' full evaluations share one core resolution
// instead of paying for two.
//
// shared declares that the outermost shared storage levels of m —
// temporal factors, permutation, rigid spatial choices and free spatial
// factors — are configured identically to the mapping most recently
// staged or evaluated through this scratch on this compiled engine. Those
// levels' spatial factors, loop-nest segments and stationarity factors are
// reused instead of recomputed; every reused value was produced by the
// same code on identical inputs, so Stage then FinishStaged is
// bit-identical to EvaluateInto for any truthful shared value. Pass 0 when
// unsure (or after an evaluation error). A stale or mismatched scratch
// (different engine, never staged) silently degrades to a full evaluation
// rather than misbehaving.
//
// sfShared extends the reuse to levels whose spatial configuration alone
// matches the previous mapping (rigid choices and free factors, temporal
// loops free to differ) — candidates drawn under one spatial assignment
// share all of it, and their spatial factors and instance counts are
// bit-identical by construction. Pass shared when unsure.
//
// limitPJ lets the bound stop accumulating energy terms once the partial
// sum alone exceeds it: the returned EnergyPJ is then some admissible
// value above limitPJ rather than the full bound, so any comparison
// "bound > limit" is unaffected. Pass math.Inf(1) for the exact bound.
//
// The staged state also becomes the delta baseline for the next Stage on
// this scratch whether or not FinishStaged runs: a pruned candidate still
// advances the shared-prefix chain.
func (c *Compiled) Stage(s *Scratch, m *mapping.Mapping, opts Options, shared, sfShared int, limitPJ float64) (Bound, error) {
	if _, err := c.stageCore(s, m, opts, shared, sfShared); err != nil {
		return Bound{}, err
	}
	return c.boundFromCoreLimited(&s.an, limitPJ), nil
}

// FinishStaged completes the evaluation a Stage call prepared, writing the
// result into res. It must follow a successful Stage of the same compiled
// engine on the same scratch, with no other evaluation in between.
func (c *Compiled) FinishStaged(s *Scratch, res *Result, opts Options) error {
	if !s.anValid || s.an.c != c {
		return fmt.Errorf("model: FinishStaged without a staged scratch for %s", c.l.Name)
	}
	return c.finishStaged(s, res, opts)
}

// stageCore validates m and resolves its core analysis state into s.an,
// honoring (and returning) the shared-prefix reuse count it could actually
// apply. The flattened loop nest is NOT rebuilt here: the bound never
// walks it, so its rebuild is deferred to the finishing passes via
// an.nestOK, which tracks how much of the nest from the last finish is
// still valid across the staged chain (each stage's shared prefix
// guarantees the levels below it are unchanged, so the minimum over the
// chain is a truthful shared value for the eventual resetNest). After
// stageCore returns, s.an is a valid delta baseline even if the finishing
// passes never run or fail.
func (c *Compiled) stageCore(s *Scratch, m *mapping.Mapping, opts Options, shared, sfShared int) (int, error) {
	a := c.eng.a
	if !opts.SkipValidate {
		if err := c.l.Validate(); err != nil {
			return 0, err
		}
		if err := m.Validate(a, c.l); err != nil {
			return 0, err
		}
	}
	an := &s.an
	if shared < 0 || !s.anValid || an.c != c {
		shared = 0
	}
	if sfShared < 0 || !s.anValid || an.c != c {
		sfShared = 0
	}
	if shared > a.NumLevels() {
		shared = a.NumLevels()
	}
	if sfShared > a.NumLevels() {
		sfShared = a.NumLevels()
	}
	s.anValid = false
	shared = an.resetCore(c, m, shared, sfShared)
	if shared < an.nestOK {
		an.nestOK = shared
	}
	s.anValid = true
	return shared, nil
}

// finishStaged runs the finishing passes — usage, energy, throughput — of
// a staged analysis into res.
func (c *Compiled) finishStaged(s *Scratch, res *Result, opts Options) error {
	a := c.eng.a
	an := &s.an
	an.resetNest(an.nestOK) // deferred from stageCore; see there
	an.nestOK = len(an.sf)
	res.reset()
	res.Layer = c.l.Name
	res.MACs = an.actualMACs
	res.PaddedMACs = an.paddedMACs
	res.ComputeCycles = an.cycles
	if an.paddedMACs > 0 {
		res.Utilization = float64(an.actualMACs) / float64(an.paddedMACs)
	}

	// Traffic analysis per tensor, written directly into res.Usage.
	for _, t := range readTensors {
		chain := c.eng.keeps[t]
		start := len(res.Usage)
		res.Usage = extendUsage(res.Usage, len(chain))
		if err := an.readTensorUsage(t, res.Usage[start:]); err != nil {
			return err
		}
	}
	outStart := len(res.Usage)
	res.Usage = extendUsage(res.Usage, len(c.eng.keeps[workload.Outputs]))
	if err := an.outputUsage(res.Usage[outStart:]); err != nil {
		return err
	}

	// Energy: aggregate always; itemized ledger only on request.
	if err := an.chargeEnergy(res, opts); err != nil {
		return err
	}

	// Throughput: compute-bound cycles vs per-level bandwidth limits.
	res.Cycles = float64(res.ComputeCycles)
	for i := 0; i < a.NumLevels(); i++ {
		lv := a.Level(i)
		if lv.BandwidthWordsPerCycle <= 0 {
			continue
		}
		var words float64
		for j := range res.Usage {
			if res.Usage[j].LevelIndex == i {
				u := &res.Usage[j]
				words += u.Reads + u.Writes + 2*u.Updates
			}
		}
		if need := words / lv.BandwidthWordsPerCycle; need > res.Cycles {
			res.Cycles = need
			res.BottleneckLevel = lv.Name
		}
	}
	if res.Cycles > 0 {
		res.MACsPerCycle = float64(res.MACs) / res.Cycles
	}
	res.AreaUM2 = c.eng.area
	return nil
}

// Evaluate runs the compiled model with fresh scratch and result
// allocations — the convenient one-shot entry point.
func (c *Compiled) Evaluate(m *mapping.Mapping, opts Options) (*Result, error) {
	res := &Result{}
	if err := c.EvaluateInto(c.eng.NewScratch(), m, res, opts); err != nil {
		return nil, err
	}
	return res, nil
}

// extendUsage appends n zeroed usage records, reusing capacity.
func extendUsage(u []Usage, n int) []Usage {
	for i := 0; i < n; i++ {
		u = append(u, Usage{})
	}
	return u
}
