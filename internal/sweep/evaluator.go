package sweep

import (
	"fmt"

	"photoloop/internal/mapper"
	"photoloop/internal/workload"
)

// Evaluator evaluates individual variant points of a Spec on demand,
// without expanding the axis grid: the caller supplies one value per
// declared axis and gets back the same Point a full Run of an equivalent
// grid would produce for that combination (same variant construction,
// same evaluation path, same shared mapper.Cache — bit-identical, which
// the explore package's equivalence tests pin).
//
// This is the hook adaptive design-space explorers build on. The declared
// Axes contribute only their Param names (and ordering); the supplied
// values need not appear in any Values list, so an explorer can walk
// ranges the declarative grid never enumerates. An Evaluator is safe for
// concurrent use.
type Evaluator struct {
	spec     Spec
	base     *variant
	r        *runner
	networks []workload.Network
	netNames []string
	objs     []mapper.Objective
	objNames []string
}

// maxSearchWorkers caps Spec.SearchWorkers (and an eval request's
// Workers): a layer search allocates and spawns per worker, and the value
// arrives from clients. Far above every useful setting — the mapper
// default is at most 8.
const maxSearchWorkers = 64

// specError is a spec rejection at one position of the spec: "base",
// "workload <i>", or "" for the objective list.
type specError struct {
	pos string
	err error
}

// Error implements error: "sweep: <pos>: <cause>".
func (e *specError) Error() string {
	if e.pos == "" {
		return "sweep: " + e.err.Error()
	}
	return "sweep: " + e.pos + ": " + e.err.Error()
}

// Unwrap returns the cause.
func (e *specError) Unwrap() error { return e.err }

// NewEvaluator validates the spec's base, workloads and objectives (its
// axes' Values lists may be empty — only the Param names matter) and
// prepares the shared evaluation state. It is the one validation point
// every sweep, study, eval request and sharded task passes. Options
// contributes only the Cache: the caller drives its own concurrency and
// accounting, point by point.
func NewEvaluator(sp Spec, opts Options) (*Evaluator, error) {
	base, err := sp.base()
	if err != nil {
		return nil, err
	}
	if sp.SearchWorkers > maxSearchWorkers {
		return nil, fmt.Errorf("sweep: %d search workers exceeds the cap of %d", sp.SearchWorkers, maxSearchWorkers)
	}
	if len(sp.Workloads) == 0 {
		return nil, fmt.Errorf("sweep: spec has no workloads")
	}
	objectives := sp.Objectives
	if len(objectives) == 0 {
		objectives = []string{"energy"}
	}
	e := &Evaluator{
		spec:     sp,
		base:     base,
		networks: make([]workload.Network, len(sp.Workloads)),
		netNames: make([]string, len(sp.Workloads)),
		objs:     make([]mapper.Objective, len(objectives)),
		objNames: objectives,
	}
	for i := range sp.Workloads {
		w := &sp.Workloads[i]
		// Fusion needs an albireo-backed variant evaluator.
		if w.Fused && base.albireo == nil {
			return nil, fmt.Errorf("sweep: workload %d: fused evaluation needs an albireo-backed base", i)
		}
		e.networks[i], e.netNames[i], err = w.resolve()
		if err != nil {
			return nil, &specError{pos: fmt.Sprintf("workload %d", i), err: err}
		}
	}
	for i, name := range objectives {
		if e.objs[i], err = mapper.ParseObjective(name); err != nil {
			return nil, &specError{err: err}
		}
	}
	cache := opts.Cache
	if cache == nil {
		cache = mapper.NewCache()
	}
	e.r = &runner{spec: &e.spec, cache: cache}
	return e, nil
}

// Workloads returns the resolved workload names, in spec order.
func (e *Evaluator) Workloads() []string { return append([]string(nil), e.netNames...) }

// Objectives returns the resolved mapper objective names, in spec order
// (the default "energy" when the spec named none).
func (e *Evaluator) Objectives() []string { return append([]string(nil), e.objNames...) }

// Validate builds (and discards) the variant for one set of axis values —
// axis application and architecture construction — so explorers can
// reject an invalid point or a mistyped axis param before spending any
// evaluation.
func (e *Evaluator) Validate(values []any) error {
	v, err := e.spec.variantWith(e.base, values)
	if err != nil {
		return err
	}
	_, err = v.build()
	return err
}

// job assembles the pending point index: variant v against workload wi
// and objective oi (spec indices).
func (e *Evaluator) job(index int, v *variant, wi, oi int) pointJob {
	return pointJob{
		index:    index,
		variant:  v,
		workload: &e.spec.Workloads[wi],
		network:  e.networks[wi],
		netName:  e.netNames[wi],
		objName:  e.objNames[oi],
		obj:      e.objs[oi],
	}
}

// evalOwn evaluates a job whose variant no other job shares, on a
// job-owned state (see pointJob.state).
func (e *Evaluator) evalOwn(job *pointJob) (Point, error) {
	job.state = &variantState{}
	p, _, err := e.r.evaluate(job, nil, false)
	return p, err
}

// Eval evaluates one point: the variant with the given axis values,
// against workload wi and objective oi (spec indices). index labels the
// returned Point (Point.Index); failures land in Point.Err, exactly as in
// a Run.
func (e *Evaluator) Eval(index int, values []any, wi, oi int) (*Point, error) {
	if wi < 0 || wi >= len(e.networks) {
		return nil, fmt.Errorf("sweep: workload index %d out of range", wi)
	}
	if oi < 0 || oi >= len(e.objs) {
		return nil, fmt.Errorf("sweep: objective index %d out of range", oi)
	}
	v, err := e.spec.variantWith(e.base, values)
	if err != nil {
		return nil, err
	}
	job := e.job(index, v, wi, oi)
	p, _ := e.evalOwn(&job)
	return &p, nil
}

// NumPoints is the number of points a Run of the spec evaluates:
// variants × workloads × objectives. It is 0 when Run rejects the grid
// (an axis without values, or more than maxVariants variants).
func (e *Evaluator) NumPoints() int {
	n := 1
	for _, ax := range e.spec.Axes {
		if len(ax.Values) == 0 || n > maxVariants/len(ax.Values) {
			return 0
		}
		n *= len(ax.Values)
	}
	return n * len(e.networks) * len(e.objs)
}

// EvalPoint evaluates point idx of the spec's grid in Run's index order —
// idx = (variant*workloads + workload)*objectives + objective, variants
// in cross-product order with the first axis most significant — and
// returns the Point a Run produces at that index. WarmStart sweeps chain
// searches across points, so their Run points differ from these cold
// evaluations; sharding skips them.
func (e *Evaluator) EvalPoint(idx int) (*Point, error) {
	if n := e.NumPoints(); idx < 0 || idx >= n {
		return nil, fmt.Errorf("sweep: point index %d out of range [0, %d)", idx, n)
	}
	oi := idx % len(e.objs)
	rest := idx / len(e.objs)
	wi := rest % len(e.networks)
	rest /= len(e.networks)
	values := make([]any, len(e.spec.Axes))
	for i := len(values) - 1; i >= 0; i-- {
		axis := e.spec.Axes[i].Values
		values[i] = axis[rest%len(axis)]
		rest /= len(axis)
	}
	return e.Eval(idx, values, wi, oi)
}

// CacheStats reports the hit/miss counters of the evaluator's search
// cache (the one passed in Options.Cache, or its private one).
func (e *Evaluator) CacheStats() (hits, misses int64) { return e.r.cache.Stats() }
