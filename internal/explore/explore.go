// Package explore is the multi-objective design-space explorer: where
// sweep evaluates a grid the caller enumerates, explore *searches* a
// declared parameter space — the same axes sweeps accept, plus ranges —
// for the Pareto frontier over configurable objectives (energy, energy
// per MAC, delay, area, EDP).
//
// Two strategies hide behind one interface. The exhaustive "grid"
// strategy expands the space through sweep.Run — bit-identical to running
// the equivalent sweep and dominance-filtering its points, which tests
// pin. The "adaptive" strategy is a seeded evolutionary archive search
// (mutate non-dominated incumbents, occasionally jump) that evaluates at
// most Budget points of spaces far too large to enumerate — millions of
// lattice points — while remaining exactly reproducible for a fixed
// (Seed, SearchWorkers) pair regardless of the evaluation pool size. Both
// strategies evaluate points through the sweep engine's evaluator over
// the spec's canonical sweep equivalent (SweepSpec, whose point index is
// the lattice index) and the shared mapper.Cache, so repeated
// (architecture, layer shape, objective) searches are never recomputed.
// A sharded job publishes that same sweep spec, so a lease is a range of
// point indices of the coordinator-resolved sweep spec.
//
// `photoloop explore` runs a Spec from flags or JSON and `POST
// /v1/explore` serves the same engine (see Attach).
package explore

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"

	"photoloop/internal/fidelity"
	"photoloop/internal/mapper"
	"photoloop/internal/sweep"
)

// Spec declares an exploration: a base architecture, the parameter space
// (axes of explicit values or min/max/step ranges), one workload, and the
// frontier objectives.
type Spec struct {
	// Name labels the exploration in outputs.
	Name string `json:"name,omitempty"`
	// Base is the architecture every candidate starts from (the same
	// selector sweeps use: albireo, raw arch spec, or preset).
	Base sweep.Base `json:"base"`
	// Axes span the search space. Each axis is either an explicit value
	// grid (sweep semantics) or a min/max/step range; the space is the
	// cross product, first axis most significant.
	Axes []Axis `json:"axes"`
	// Workload is the network every candidate is evaluated on.
	Workload sweep.Workload `json:"workload"`
	// Objectives are the frontier dimensions, all minimized: "energy"
	// (total pJ), "pj_per_mac", "delay" (cycles), "area" (µm²), "edp"
	// (pJ·cycles), "accuracy" (estimated accuracy loss % from the analog
	// fidelity rollup). Default: energy and area.
	Objectives []string `json:"objectives,omitempty"`
	// Fidelity configures the analog fidelity rollup attached to every
	// candidate (package fidelity); selecting the "accuracy" objective
	// defaults it to `{}` (the physics defaults) when unset. The rollup is
	// a closed-form post-pass: energy/delay/area are bit-identical with or
	// without it.
	Fidelity *fidelity.Spec `json:"fidelity,omitempty"`
	// Strategy selects the search: "grid" (exhaustive, bit-identical to
	// sweep.Run + dominance filter), "adaptive" (budgeted evolutionary
	// search), or "auto"/"" (grid when the space fits the budget,
	// adaptive otherwise).
	Strategy string `json:"strategy,omitempty"`
	// Budget caps how many design points the adaptive strategy evaluates
	// (default 128). The grid strategy ignores it and evaluates the whole
	// space.
	Budget int `json:"budget,omitempty"`
	// MapperObjective is what the mapper minimizes when scheduling each
	// candidate (default "energy"). It is deliberately separate from
	// Objectives: every candidate gets one schedule, and the frontier is
	// read off that schedule's metrics.
	MapperObjective string `json:"mapper_objective,omitempty"`
	// MapperBudget is the mapper evaluation budget per layer (0 = mapper
	// default).
	MapperBudget int `json:"mapper_budget,omitempty"`
	// Seed fixes both the mapper's randomness and the adaptive
	// strategy's proposal stream (0 = 1).
	Seed int64 `json:"seed,omitempty"`
	// SearchWorkers caps per-layer search parallelism (0 = mapper
	// default). Pin it (with Seed) for machine-independent frontiers.
	SearchWorkers int `json:"search_workers,omitempty"`

	// noSurrogate disables the adaptive strategy's surrogate proposal
	// ranking, restoring the plain mutate-and-jump proposal stream. It is
	// the reference mode the surrogate's tests compare against and is
	// deliberately unexported: external callers always get the ranked
	// search, which spends the same budget on better candidates.
	noSurrogate bool
}

// Axis is one dimension of the search space: either an explicit Values
// grid (exactly as sweep.Axis) or an inclusive [Min, Max] range walked in
// Step increments (Step defaults to 1; integral ranges produce ints).
// Exactly one of the two forms must be used.
type Axis struct {
	// Param names the parameter (the same names sweep axes accept:
	// Albireo levers, "scaling", "clock_ghz", "component.<name>.<param>").
	Param string `json:"param"`
	// Values is the explicit grid form.
	Values []any `json:"values,omitempty"`
	// Min and Max bound the range form (inclusive).
	Min *float64 `json:"min,omitempty"`
	Max *float64 `json:"max,omitempty"`
	// Step is the range increment (default 1).
	Step float64 `json:"step,omitempty"`
}

// maxAxisValues bounds one axis's expansion — the cross product may hold
// millions of points, but each individual axis must stay enumerable (the
// adaptive mutator walks per-axis value lists).
const maxAxisValues = 4096

// resolve expands the axis into its ordered value list.
func (ax *Axis) resolve() ([]any, error) {
	if ax.Param == "" {
		return nil, fmt.Errorf("explore: axis has no param")
	}
	ranged := ax.Min != nil || ax.Max != nil || ax.Step != 0
	switch {
	case len(ax.Values) > 0 && ranged:
		return nil, fmt.Errorf("explore: axis %q sets both values and a range", ax.Param)
	case len(ax.Values) > 0:
		return ax.Values, nil
	case ax.Min == nil || ax.Max == nil:
		return nil, fmt.Errorf("explore: axis %q needs values, or both min and max", ax.Param)
	}
	step := ax.Step
	if step == 0 {
		step = 1
	}
	if step < 0 || math.IsInf(step, 0) || math.IsNaN(step) {
		return nil, fmt.Errorf("explore: axis %q has invalid step %v", ax.Param, ax.Step)
	}
	lo, hi := *ax.Min, *ax.Max
	if math.IsNaN(lo) || math.IsInf(lo, 0) || math.IsNaN(hi) || math.IsInf(hi, 0) {
		return nil, fmt.Errorf("explore: axis %q has non-finite bounds [%v, %v]", ax.Param, lo, hi)
	}
	if hi < lo {
		return nil, fmt.Errorf("explore: axis %q has max %v < min %v", ax.Param, hi, lo)
	}
	// Cap-check as a float before converting: a huge range (or a denormal
	// step) would overflow the int conversion and slip past the cap.
	count := math.Floor((hi-lo)/step + 1e-9)
	if count+1 > maxAxisValues {
		return nil, fmt.Errorf("explore: axis %q expands to %.0f values (cap %d); raise step", ax.Param, count+1, maxAxisValues)
	}
	n := int(count) + 1
	integral := lo == math.Trunc(lo) && step == math.Trunc(step)
	values := make([]any, n)
	for k := 0; k < n; k++ {
		v := lo + float64(k)*step
		if integral {
			values[k] = int(math.Round(v))
		} else {
			values[k] = v
		}
	}
	return values, nil
}

// space is the resolved search lattice: per-axis value lists and the
// cross-product size. Lattice indices are mixed-radix encodings of choice
// vectors, first axis most significant — the same order sweep.Run walks.
type space struct {
	params [][]any // per-axis values
	names  []string
	size   int64
}

// resolveSpace expands every axis and sizes the lattice.
func resolveSpace(axes []Axis) (*space, error) {
	if len(axes) == 0 {
		return nil, fmt.Errorf("explore: spec has no axes")
	}
	s := &space{size: 1}
	for i := range axes {
		values, err := axes[i].resolve()
		if err != nil {
			return nil, err
		}
		if s.size > math.MaxInt64/int64(len(values)) {
			return nil, fmt.Errorf("explore: axis grid exceeds 2^63 points")
		}
		s.size *= int64(len(values))
		s.params = append(s.params, values)
		s.names = append(s.names, axes[i].Param)
	}
	return s, nil
}

// valuesAt decodes a lattice index into one value per axis.
func (s *space) valuesAt(index int64) []any {
	out := make([]any, len(s.params))
	for i := len(s.params) - 1; i >= 0; i-- {
		n := int64(len(s.params[i]))
		out[i] = s.params[i][index%n]
		index /= n
	}
	return out
}

// choiceAt decodes a lattice index into per-axis value positions.
func (s *space) choiceAt(index int64) []int {
	out := make([]int, len(s.params))
	for i := len(s.params) - 1; i >= 0; i-- {
		n := int64(len(s.params[i]))
		out[i] = int(index % n)
		index /= n
	}
	return out
}

// indexOf encodes per-axis value positions into a lattice index.
func (s *space) indexOf(choice []int) int64 {
	var idx int64
	for i, c := range choice {
		idx = idx*int64(len(s.params[i])) + int64(c)
	}
	return idx
}

// Frontier objective names, canonicalized by canonicalObjective.
const (
	objEnergy   = "energy"
	objPJPerMAC = "pj_per_mac"
	objDelay    = "delay"
	objArea     = "area"
	objEDP      = "edp"
	objAccuracy = "accuracy"
)

// Objectives returns the canonical frontier objective names, in
// documentation order — the vocabulary canonicalObjective accepts (plus
// aliases).
func Objectives() []string {
	return []string{objEnergy, objPJPerMAC, objDelay, objArea, objEDP, objAccuracy}
}

// canonicalObjective maps accepted spellings to the canonical objective
// name.
func canonicalObjective(name string) (string, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "energy", "total_pj":
		return objEnergy, nil
	case "pj_per_mac", "energy_per_mac", "pj/mac":
		return objPJPerMAC, nil
	case "delay", "latency", "cycles":
		return objDelay, nil
	case "area", "area_um2":
		return objArea, nil
	case "edp":
		return objEDP, nil
	case "accuracy", "accuracy_loss", "fidelity":
		return objAccuracy, nil
	}
	return "", fmt.Errorf("explore: unknown objective %q (want energy, pj_per_mac, delay, area, edp or accuracy)", name)
}

// metric reads one canonical objective off an evaluated point. All
// objectives are minimized.
func metric(name string, p *sweep.Point) float64 {
	switch name {
	case objPJPerMAC:
		return p.PJPerMAC
	case objDelay:
		return p.Cycles
	case objArea:
		return p.AreaUM2
	case objEDP:
		return p.TotalPJ * p.Cycles
	case objAccuracy:
		return p.AccuracyLossPct
	default: // objEnergy
		return p.TotalPJ
	}
}

// dominates reports whether objective vector a Pareto-dominates b: no
// coordinate worse, at least one strictly better (all minimized).
func dominates(a, b []float64) bool {
	better := false
	for i := range a {
		if a[i] > b[i] {
			return false
		}
		if a[i] < b[i] {
			better = true
		}
	}
	return better
}

// Options tunes a Run without changing the frontier it finds (for a fixed
// Spec, results are independent of Workers and Cache).
type Options struct {
	// Workers is the candidate-evaluation pool size (default
	// GOMAXPROCS / per-search workers, as in sweeps).
	Workers int
	// Context cancels the run between evaluation batches; the partial
	// frontier is returned alongside the context's error.
	Context context.Context
	// Cache deduplicates identical (architecture, layer shape) searches
	// across candidates and across runs; nil gets a fresh per-run cache.
	Cache *mapper.Cache
	// Progress, when set, is called after each candidate evaluation with
	// the number done and the planned total. Calls are serialized.
	Progress func(done, total int)
	// OnPoint, when set, streams each evaluated candidate as it completes
	// (completion order). Calls are serialized with Progress. The frontier
	// returned at the end is unaffected.
	OnPoint func(*sweep.Point)
	// PreEvaluate, when set, is called with each candidate batch's lattice
	// indices before the batch is evaluated — the whole lattice once for
	// the grid strategy, one generation at a time for the adaptive one.
	// Sharded jobs hook it to lease the batch to worker processes as
	// point indices of SweepSpec and wait until its searches reach the
	// shared cache's store, after which the local evaluation finds
	// everything warm; because the hook runs between generations it
	// cannot change which candidates are proposed, so the frontier stays
	// a function of (Spec, Seed) alone. An error aborts the run with the
	// partial-frontier contract.
	PreEvaluate func(lattice []int64) error
}

// defaultBudget caps adaptive evaluations when the spec names none.
const defaultBudget = 128

// withDefaults canonicalizes the spec: objectives, strategy, budget,
// seed, mapper objective.
func (sp Spec) withDefaults() (Spec, error) {
	if len(sp.Objectives) == 0 {
		sp.Objectives = []string{objEnergy, objArea}
	}
	seen := map[string]bool{}
	canon := make([]string, len(sp.Objectives))
	for i, name := range sp.Objectives {
		c, err := canonicalObjective(name)
		if err != nil {
			return sp, err
		}
		if seen[c] {
			return sp, fmt.Errorf("explore: duplicate objective %q", c)
		}
		seen[c] = true
		canon[i] = c
	}
	sp.Objectives = canon
	if sp.Fidelity == nil && seen[objAccuracy] {
		// The accuracy objective needs the rollup; default to the physics
		// defaults rather than failing.
		sp.Fidelity = &fidelity.Spec{}
	}
	if sp.MapperObjective == "" {
		sp.MapperObjective = "energy"
	}
	if _, err := mapper.ParseObjective(sp.MapperObjective); err != nil {
		return sp, fmt.Errorf("explore: mapper objective: %w", err)
	}
	if sp.Budget <= 0 {
		sp.Budget = defaultBudget
	}
	if sp.Seed == 0 {
		sp.Seed = 1
	}
	switch sp.Strategy {
	case "", StrategyAuto, StrategyGrid, StrategyAdaptive:
	default:
		return sp, fmt.Errorf("explore: unknown strategy %q (want auto, grid or adaptive)", sp.Strategy)
	}
	return sp, nil
}

// Search strategies.
const (
	// StrategyAuto picks grid when the space fits the budget, adaptive
	// otherwise.
	StrategyAuto = "auto"
	// StrategyGrid evaluates the whole space through sweep.Run.
	StrategyGrid = "grid"
	// StrategyAdaptive runs the budgeted evolutionary search.
	StrategyAdaptive = "adaptive"
)

// sweepSpec builds the sweep.Spec equivalent of this exploration: the
// axes with their full expanded grids, the one workload and the mapper
// objective. With one workload and one objective, lattice index i is the
// sweep's point index i.
func (sp *Spec) sweepSpec(s *space) sweep.Spec {
	axes := make([]sweep.Axis, len(s.params))
	for i := range s.params {
		axes[i] = sweep.Axis{Param: s.names[i], Values: s.params[i]}
	}
	return sweep.Spec{
		Name:          sp.Name,
		Base:          sp.Base,
		Axes:          axes,
		Workloads:     []sweep.Workload{sp.Workload},
		Objectives:    []string{sp.MapperObjective},
		Budget:        sp.MapperBudget,
		Seed:          sp.Seed,
		SearchWorkers: sp.SearchWorkers,
		Fidelity:      sp.Fidelity,
	}
}

// SweepSpec is the exploration's canonical sweep equivalent: the spec
// with its defaults applied, every axis expanded to its value list. Its
// point index i is lattice index i, so a sharded explore job publishes
// it and leases ranges of candidate indices as sweep points. It fails
// where Run would, on a spec whose defaults or axes do not resolve.
func (sp Spec) SweepSpec() (sweep.Spec, error) {
	sp, err := sp.withDefaults()
	if err != nil {
		return sweep.Spec{}, err
	}
	s, err := resolveSpace(sp.Axes)
	if err != nil {
		return sweep.Spec{}, err
	}
	return sp.sweepSpec(s), nil
}

// Run searches the spec's parameter space for its Pareto frontier.
func Run(sp Spec, opts Options) (*Frontier, error) {
	sp, err := sp.withDefaults()
	if err != nil {
		return nil, err
	}
	s, err := resolveSpace(sp.Axes)
	if err != nil {
		return nil, err
	}
	strategy := sp.Strategy
	if strategy == "" || strategy == StrategyAuto {
		if s.size <= int64(sp.Budget) {
			strategy = StrategyGrid
		} else {
			strategy = StrategyAdaptive
		}
	}
	if strategy == StrategyGrid {
		return runGrid(&sp, s, opts)
	}
	return runAdaptive(&sp, s, opts)
}

// evalPoint pairs an evaluated sweep point with its lattice position and
// objective vector.
type evalPoint struct {
	point   *sweep.Point
	lattice int64
	objs    []float64
}

// objsOf extracts the spec's objective vector from a point.
func objsOf(objectives []string, p *sweep.Point) []float64 {
	out := make([]float64, len(objectives))
	for i, name := range objectives {
		out[i] = metric(name, p)
	}
	return out
}

// runGrid evaluates the whole lattice through sweep.Run (bit-identical to
// the equivalent sweep, test-pinned) and dominance-filters its points.
// On a run error (a failed point or a canceled context) the frontier of
// the successfully evaluated points is returned alongside the error, with
// the failed points counted as Infeasible — the same partial-result
// contract the adaptive strategy keeps.
func runGrid(sp *Spec, s *space, opts Options) (*Frontier, error) {
	if opts.PreEvaluate != nil {
		lattice := make([]int64, s.size)
		for i := range lattice {
			lattice[i] = int64(i)
		}
		if err := opts.PreEvaluate(lattice); err != nil {
			return nil, err
		}
	}
	res, err := sweep.Run(sp.sweepSpec(s), sweep.Options{
		Workers:  opts.Workers,
		Context:  opts.Context,
		Cache:    opts.Cache,
		Progress: opts.Progress,
		OnPoint:  opts.OnPoint,
	})
	if res == nil {
		return nil, err // spec-level error, nothing evaluated
	}
	evaluated := make([]evalPoint, 0, len(res.Points))
	infeasible := 0
	for i := range res.Points {
		p := &res.Points[i]
		if p.Err != "" {
			infeasible++
			continue
		}
		evaluated = append(evaluated, evalPoint{point: p, lattice: int64(p.Index), objs: objsOf(sp.Objectives, p)})
	}
	f := buildFrontier(sp, StrategyGrid, s, evaluated, infeasible)
	f.CacheHits, f.CacheMisses = res.CacheHits, res.CacheMisses
	return f, err
}

// poolSize mirrors sweep.Run's default: divide GOMAXPROCS by the
// per-layer search pool so total parallelism stays near the machine.
func poolSize(sp *Spec, opts *Options) int {
	workers := opts.Workers
	if workers <= 0 {
		perSearch := sp.SearchWorkers
		if perSearch <= 0 {
			perSearch = mapper.DefaultSearchWorkers()
		}
		workers = runtime.GOMAXPROCS(0) / perSearch
		if workers < 1 {
			workers = 1
		}
	}
	return workers
}
