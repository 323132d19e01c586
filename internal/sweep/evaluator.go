package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"photoloop/internal/mapper"
	"photoloop/internal/workload"
)

// Evaluator is the sweep engine's one point evaluator. EvalPoints runs
// any set of point indices of the spec's grid on one worker pool — Run
// is EvalPoints over every index — so a point evaluated alone is the
// same Point a whole Run produces at its index (same variant
// construction, same evaluation path, same shared mapper.Cache —
// bit-identical, which evaluator_test.go pins).
//
// Indices decode against the axes' own value counts, so a grid far past
// Run's maxVariants typo guard (an explore lattice) still evaluates
// point by point. An Evaluator is safe for concurrent use.
type Evaluator struct {
	spec     Spec
	base     *variant
	cache    *mapper.Cache
	networks []workload.Network
	netNames []string
	objs     []mapper.Objective
	objNames []string
}

// maxSearchWorkers caps Spec.SearchWorkers (and an eval request's
// Workers): a layer search allocates per lane, and the value arrives from
// clients. Far above every useful setting — the mapper default is
// mapper.DefaultLanes.
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
// contributes only the Cache; the rest of it drives EvalPoints.
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
		cache:    opts.Cache,
		networks: make([]workload.Network, len(sp.Workloads)),
		netNames: make([]string, len(sp.Workloads)),
		objs:     make([]mapper.Objective, len(objectives)),
		objNames: objectives,
	}
	for i := range sp.Workloads {
		w := &sp.Workloads[i]
		// Fusion rebuilds the arch per layer position from the variant's
		// Albireo config (albireo.Config.Fused).
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
	if e.cache == nil {
		e.cache = mapper.NewCache()
	}
	return e, nil
}

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

// numVariants sizes the axis grid a Run evaluates, or rejects it: an axis
// without values, or more than maxVariants variants.
func (e *Evaluator) numVariants() (int, error) {
	n := 1
	for _, ax := range e.spec.Axes {
		if len(ax.Values) == 0 {
			return 0, fmt.Errorf("sweep: axis %q has no values", ax.Param)
		}
		if n > maxVariants/len(ax.Values) {
			return 0, fmt.Errorf("sweep: axis grid exceeds %d variants", maxVariants)
		}
		n *= len(ax.Values)
	}
	return n, nil
}

// jobAt decodes point idx of the grid in Run's index order — idx =
// (variant*workloads + workload)*objectives + objective, variants in
// cross-product order with the first axis most significant — against the
// axes' own value counts. variants memoizes the decoded variants by
// variant index, so every point of one variant shares its built
// architecture and mapper session.
func (e *Evaluator) jobAt(idx int64, variants map[int64]*variant) (pointJob, error) {
	if idx < 0 {
		return pointJob{}, fmt.Errorf("sweep: point index %d out of range", idx)
	}
	perVariant := int64(len(e.networks) * len(e.objs))
	vi, wo := idx/perVariant, int(idx%perVariant)
	v, ok := variants[vi]
	if !ok {
		values := make([]any, len(e.spec.Axes))
		rest := vi
		for i := len(values) - 1; i >= 0; i-- {
			axis := e.spec.Axes[i].Values
			if len(axis) == 0 {
				return pointJob{}, fmt.Errorf("sweep: axis %q has no values", e.spec.Axes[i].Param)
			}
			values[i] = axis[rest%int64(len(axis))]
			rest /= int64(len(axis))
		}
		if rest != 0 {
			return pointJob{}, fmt.Errorf("sweep: point index %d out of range", idx)
		}
		var err error
		if v, err = e.spec.variantWith(e.base, values); err != nil {
			return pointJob{}, err
		}
		variants[vi] = v
	}
	return e.job(int(idx), v, wo/len(e.objs), wo%len(e.objs)), nil
}

// EvalPoints evaluates the grid points idx in Run's index order on one
// worker pool and returns them slot for slot (points[k] is point idx[k];
// Point.Index is its grid index). It decodes every index first, so a
// malformed index or a variant whose axis values do not apply is rejected
// — in idx order — before anything runs; then opts.PreEvaluate sees idx,
// and only then does the pool start. Either failure evaluates nothing and
// returns nil points. A canceled opts.Context stops dispatch: the points
// never started carry the cancellation as their Err, and the context's
// error is returned with them. Point-level failures are not errors here:
// they land in Point.Err.
func (e *Evaluator) EvalPoints(idx []int64, opts Options) ([]Point, error) {
	variants := map[int64]*variant{}
	jobs := make([]pointJob, len(idx))
	for k, i := range idx {
		var err error
		if jobs[k], err = e.jobAt(i, variants); err != nil {
			return nil, err
		}
	}
	if opts.PreEvaluate != nil {
		if err := opts.PreEvaluate(idx); err != nil {
			return nil, err
		}
	}

	// The pool consumes point groups: runs of consecutive slots whose
	// points differ only in objective (the same idx / objectives), whose
	// layers are searched once for all of them. groups[g] is the group's
	// first slot; it ends where the next begins.
	nobj := int64(len(e.objs))
	var groups []int
	for k, i := range idx {
		if k == 0 || i/nobj != idx[k-1]/nobj {
			groups = append(groups, k)
		}
	}
	groups = append(groups, len(idx))

	points := make([]Point, len(idx))
	var mu sync.Mutex
	done := 0
	report := func(p *Point) {
		mu.Lock()
		defer mu.Unlock()
		done++
		if opts.OnPoint != nil {
			opts.OnPoint(p)
		}
		if opts.Progress != nil {
			opts.Progress(done, len(idx))
		}
	}

	workers := opts.Workers
	if workers <= 0 {
		// Each point's layer searches run their lanes on up to GOMAXPROCS
		// goroutines; divide the default point pool by that so a
		// default-flag sweep keeps total parallelism near GOMAXPROCS
		// instead of multiplying the two pools. (Pool sizes never change
		// results.)
		lanes := e.spec.SearchWorkers
		if lanes <= 0 {
			lanes = mapper.DefaultLanes
		}
		procs := runtime.GOMAXPROCS(0)
		workers = max(1, procs/min(lanes, procs))
	}
	workers = min(workers, len(groups)-1)
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	groupCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := range groupCh {
				k0, k1 := groups[g], groups[g+1]
				e.evaluate(jobs[k0:k1], points[k0:k1])
				for k := k0; k < k1; k++ {
					report(&points[k])
				}
			}
		}()
	}
	canceled := false
dispatch:
	for g := range len(groups) - 1 {
		// A select with both cases ready picks at random, so a canceled
		// context could still dispatch a group to an idle worker; check
		// it first.
		if ctx.Err() != nil {
			canceled = true
			break
		}
		select {
		case groupCh <- g:
		case <-ctx.Done():
			canceled = true
			break dispatch
		}
	}
	close(groupCh)
	wg.Wait()
	if !canceled {
		return points, nil
	}
	for k := range points {
		if points[k].Network == "" { // never dispatched
			points[k] = canceledPoint(&jobs[k], ctx.Err())
		}
	}
	return points, ctx.Err()
}

// ColdPoints returns the points of idx, in idx order, that a run would
// compute at least one search for: those with a search key has does not
// hold. It derives a point's keys exactly as evaluate looks them up —
// the same per-layer sessions and search options, then
// mapper.Session.Keys — and stops at the point's first key has lacks.
// Whatever it cannot derive reads as cold: an index that does not
// decode, or a variant or layer session that fails to build.
func (e *Evaluator) ColdPoints(idx []int64, has func(mapper.Key) bool) []int64 {
	variants := map[int64]*variant{}
	var cold []int64
	for _, i := range idx {
		job, err := e.jobAt(i, variants)
		if err != nil || !e.served(&job, has) {
			cold = append(cold, i)
		}
	}
	return cold
}

// served reports whether has holds every search key of the point: true
// at once for a fixed mapping, which searches nothing.
func (e *Evaluator) served(job *pointJob, has func(mapper.Key) bool) bool {
	if job.mapping != nil {
		return true
	}
	// The keys need the variant's session, not its fidelity chain (the
	// variant is this walk's own, so nothing later misses the chain).
	st := &job.variant.state
	st.init(job.variant, nil, true)
	if st.err != nil {
		return false
	}
	objs := []mapper.Objective{job.obj}
	for i := range job.network.Layers {
		layer := &job.network.Layers[i]
		sess, err := job.layerSession(i)
		if err != nil {
			return false
		}
		opts := e.searchOptions(job, sess, layer, layer.ShapeFingerprint())
		for _, k := range sess.Keys(layer, opts, objs) {
			if !has(k) {
				return false
			}
		}
	}
	return true
}

// CacheStats reports the hit/miss counters of the evaluator's search
// cache (the one passed in Options.Cache, or its private one).
func (e *Evaluator) CacheStats() (hits, misses int64) { return e.cache.Stats() }
