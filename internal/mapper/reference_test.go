package mapper

import (
	"math/rand"
	"testing"

	"photoloop/internal/arch"
	"photoloop/internal/mapping"
	"photoloop/internal/model"
	"photoloop/internal/workload"
)

// referenceSearch is the naive oracle the production search is pinned
// against. It keeps Session.search's budget split, per-worker splitmix64
// streams, deterministic merge and phase structure, but scores candidates
// the obvious way: each one is validated before deduplication and fully
// evaluated with Compiled.Evaluate, in draw order — no lower bound, no
// delta evaluation, no staging, no reordering. Seeds are offered first in
// every worker, each charged like a draw.
func referenceSearch(t *testing.T, s *Session, l *workload.Layer, opts Options) *Best {
	t.Helper()
	o := opts.withDefaults()
	c, err := s.eng.Compile(l)
	if err != nil {
		t.Fatal(err)
	}
	seeds, err := o.Seeds.mappings()
	if err != nil {
		t.Fatal(err)
	}
	var best *Best
	evals := 0
	var stats SearchStats
	for w, budget := range splitBudget(o.Budget, o.Workers) {
		rng := rand.New(&splitmix64{x: uint64(o.Seed + int64(w)*7919)})
		wb, we, ws := referenceWorker(s, c, l, o, rng, budget, seeds)
		evals += we
		stats.add(ws)
		if wb != nil && (best == nil || better(o.Objective, wb, best)) {
			best = wb
		}
	}
	if best == nil {
		t.Fatalf("referenceSearch: no valid mapping for %s on %s", l.Name, s.a.Name)
	}
	if best.Result, err = c.Evaluate(best.Mapping, model.Options{SkipValidate: true, FullLedger: true}); err != nil {
		t.Fatal(err)
	}
	best.Evaluations = evals
	best.Stats = stats
	return best
}

// referenceWorker is searchWorker without the accelerations: the seeds,
// the all-outer warmup, the random exploration stream and the hill climb,
// each candidate charged, validated, deduplicated and fully evaluated on
// the spot.
func referenceWorker(s *Session, c *model.Compiled, l *workload.Layer, o Options, rng *rand.Rand, budget int, seeds []*mapping.Mapping) (best *Best, evals int, st SearchStats) {
	if budget <= 0 {
		return nil, 0, st
	}
	a := s.a
	seen := map[uint64]bool{}
	try := func(m *mapping.Mapping) *model.Result {
		if evals >= budget {
			return nil
		}
		evals++
		if !m.Valid(a, l) {
			st.Invalid++
			return nil
		}
		fp := m.Fingerprint()
		if seen[fp] {
			st.Duplicates++
			return nil
		}
		seen[fp] = true
		r, err := c.Evaluate(m, model.Options{SkipValidate: true})
		if err != nil {
			return nil
		}
		st.FullEvals++
		return r
	}
	consider := func(m *mapping.Mapping, r *model.Result) {
		if r != nil && (best == nil || betterEval(o.Objective, r, m, best)) {
			best = &Best{Mapping: m, Result: r}
		}
	}

	for _, m := range seeds {
		consider(m, try(m))
	}

	// Warmup, when no seed scored: the all-outer mapping of the first
	// assignments, capped at a tenth of the budget.
	wcap := min(budget/10, len(s.assignments))
	if best != nil {
		wcap = 0
	}
	for _, assign := range s.assignments[:wcap] {
		if evals >= budget {
			break
		}
		m := outerMapping(a, l, assign, s.minLv)
		consider(m, try(m))
	}

	// Random exploration up to seven tenths of the budget, half of it on
	// the canonical assignment.
	k := budget*7/10 - evals
	for i := 0; i < k; i++ {
		ai := 0
		if rng.Intn(2) == 0 {
			ai = rng.Intn(len(s.assignments))
		}
		m := randomMapping(a, l, s.assignments[ai], s.minLv, rng)
		consider(m, try(m))
	}

	// Hill climb, after the all-outer fallback when nothing scored yet.
	if best == nil {
		for _, assign := range s.assignments {
			if evals >= budget {
				break
			}
			m := outerMapping(a, l, assign, s.minLv)
			consider(m, try(m))
		}
	}
	if best == nil {
		return nil, evals, st
	}
	cur := best
	for evals < budget {
		improved := false
		for _, e := range neighborEdits(a, cur.Mapping, rng) {
			nb := cur.Mapping.Clone()
			applyEdit(nb, e)
			if r := try(nb); r != nil && betterEval(o.Objective, r, nb, cur) {
				cur = &Best{Mapping: nb, Result: r}
				improved = true
				break
			}
		}
		if !improved {
			break
		}
	}
	if cur != best && better(o.Objective, cur, best) {
		best = cur
	}
	return best, evals, st
}

// outerMapping covers each dimension's remaining bound at the outermost
// level allowed for it.
func outerMapping(a *arch.Arch, l *workload.Layer, assign []workload.Dim, min workload.Point) *mapping.Mapping {
	m := mapping.New(a)
	applyAssignment(a, m, assign)
	rem := remaining(a, m, l)
	for _, d := range workload.AllDims() {
		m.Levels[min[d]].Temporal[d] = rem[d]
	}
	return m
}

// randomMapping draws a random temporal split and permutation set — the
// reference generator drawCandidates is pinned against. Levels whose
// MaxTemporalProduct forbids temporal loops are skipped (no factor or
// permutation draws; see drawCandidates).
func randomMapping(a *arch.Arch, l *workload.Layer, assign []workload.Dim, min workload.Point, rng *rand.Rand) *mapping.Mapping {
	m := mapping.New(a)
	applyAssignment(a, m, assign)
	rem := remaining(a, m, l)
	n := a.NumLevels()
	for _, d := range workload.AllDims() {
		// Pick an inner tile chain: for each level from innermost out,
		// choose a candidate factor of what remains; the residue lands
		// on the outermost level allowed for this dimension.
		left := rem[d]
		for i := n - 1; i > min[d] && left > 1; i-- {
			if a.Level(i).MaxTemporalProduct == 1 {
				continue
			}
			cands := mapping.PaddedCandidates(left)
			f := cands[rng.Intn(len(cands))]
			m.Levels[i].Temporal[d] = f
			left = workload.CeilDiv(left, f)
		}
		m.Levels[min[d]].Temporal[d] *= left
	}
	for i := 0; i < n; i++ {
		pi := 0
		if a.Level(i).MaxTemporalProduct != 1 {
			pi = rng.Intn(len(permCandidates))
		}
		m.Levels[i].Perm = append(m.Levels[i].Perm[:0], permCandidates[pi]...)
	}
	return m
}

// remaining returns the per-dim temporal bound left after spatial factors.
func remaining(a *arch.Arch, m *mapping.Mapping, l *workload.Layer) workload.Point {
	spatial := workload.Ones()
	for i := 0; i < a.NumLevels(); i++ {
		spatial = spatial.Mul(m.SpatialAt(a, i))
	}
	rem := workload.Ones()
	for _, d := range workload.AllDims() {
		rem[d] = workload.CeilDiv(l.Bound(d), spatial[d])
	}
	return rem
}
