package explore

import (
	"context"
	"fmt"
	"math/rand"

	"photoloop/internal/sweep"
)

// generationSize is how many candidates each adaptive generation
// proposes. Proposals are drawn single-threaded between generations and
// the archive is updated only after a whole generation is evaluated, so
// the searched candidate set — and therefore the frontier — depends only
// on (Spec, Seed), never on the evaluation pool size.
const generationSize = 16

// proposalRetries bounds how many collisions with already-visited points
// a proposal tolerates before falling back to a lattice scan for the next
// unvisited index.
const proposalRetries = 32

// Surrogate proposal ranking: once surrogateMinEvals points are evaluated,
// each generation draws surrogateOversample times as many proposals as it
// will evaluate, predicts every proposal's objective vector by
// inverse-square-distance-weighted interpolation over the evaluated
// points (in normalized per-axis position space), and keeps only the most
// promising. Prediction is pure arithmetic over already-paid evaluations
// — the rejected proposals cost nothing — so the evaluation budget
// concentrates on the space the archive says is worth measuring.
// Proposals are still drawn and ranked single-threaded between
// generations, so the searched candidate set remains a function of
// (Spec, Seed) alone, independent of the evaluation pool size.
const (
	surrogateOversample = 4
	surrogateMinEvals   = 8
	// surrogateGenerationSize is the ranked search's generation; smaller
	// than the reference generationSize so the archive (and with it the
	// predictor) refreshes more often within the same budget.
	surrogateGenerationSize = 8
	// surrogateNeighbors caps how many nearest evaluated points
	// contribute to one prediction: a handful of close measurements beats
	// a global average over the whole history, whose weights flatten as
	// the lattice dwarfs the sample.
	surrogateNeighbors = 8
	// surrogateEps regularizes the inverse-square-distance weight: close
	// neighbors dominate the prediction without a distance of zero (the
	// proposal is unvisited) ever dividing by it.
	surrogateEps = 1e-6
)

// adaptive carries the state of one evolutionary run.
type adaptive struct {
	sp      *Spec
	space   *space
	rng     *rand.Rand
	visited map[int64]struct{}

	evaluated  []evalPoint
	choices    [][]int // per evaluated point, its decoded choice vector
	archive    []int   // indices into evaluated, mutually non-dominated
	infeasible int
	firstErr   string

	// Surrogate accounting: proposals scored by the predictor, and how
	// many of them were promoted into generations.
	surRanked int
	surKept   int
}

// runAdaptive is the budgeted evolutionary search: seed the lattice
// corners plus uniform draws, then repeatedly mutate non-dominated
// incumbents (with occasional uniform jumps), evaluating each generation
// as one Evaluator.EvalPoints call over its lattice indices. Run calls it
// only for a space larger than the budget, so it evaluates exactly Budget
// points.
func runAdaptive(sp *Spec, s *space, opts Options) (*Frontier, error) {
	ev, err := sweep.NewEvaluator(sp.sweepSpec(s), opts)
	if err != nil {
		return nil, err
	}
	// Surface unknown axis params and unbuildable bases before spending
	// any evaluation: building the first lattice point exercises base
	// resolution and every axis's apply path.
	if err := ev.Validate(s.valuesAt(0)); err != nil {
		return nil, err
	}
	hits0, misses0 := ev.CacheStats()

	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	x := &adaptive{sp: sp, space: s, rng: rand.New(rand.NewSource(sp.Seed)), visited: map[int64]struct{}{}}
	// The ranked search synchronizes twice as often as the reference
	// stream: fresher archives make better predictions, and the surrogate
	// arms after one generation instead of two. Generation pacing is part
	// of the (Spec, Seed)-deterministic proposal schedule either way.
	gen := surrogateGenerationSize
	if sp.noSurrogate {
		gen = generationSize
	}

	// The pool labels each point with its lattice index; relabel it to
	// count evaluation order (FrontierPoint.Index) before it streams.
	evals := 0
	order := map[int64]int{}
	genOpts := opts
	genOpts.OnPoint = func(p *sweep.Point) {
		p.Index = order[int64(p.Index)]
		if opts.OnPoint != nil {
			opts.OnPoint(p)
		}
	}
	if opts.Progress != nil {
		genOpts.Progress = func(done, _ int) { opts.Progress(evals+done, sp.Budget) }
	}

	finish := func(runErr error) (*Frontier, error) {
		f := buildFrontier(sp, StrategyAdaptive, s, x.evaluated, x.infeasible)
		hits1, misses1 := ev.CacheStats()
		f.CacheHits, f.CacheMisses = hits1-hits0, misses1-misses0
		f.SurrogateRanked, f.SurrogateKept = x.surRanked, x.surKept
		if runErr != nil {
			return f, fmt.Errorf("explore: %w", runErr)
		}
		if len(x.evaluated) == 0 {
			return f, fmt.Errorf("explore: every evaluated point failed (first: %s)", x.firstErr)
		}
		return f, nil
	}

	for evals < sp.Budget {
		if err := ctx.Err(); err != nil {
			return finish(err)
		}
		batch := x.propose(min(sp.Budget-evals, gen))
		clear(order)
		for k, lat := range batch {
			order[lat] = evals + k
		}
		points, err := ev.EvalPoints(batch, genOpts)
		if err != nil {
			return finish(err)
		}
		for k := range points {
			p := &points[k]
			if p.Err != "" {
				x.infeasible++
				if x.firstErr == "" {
					x.firstErr = p.Err
				}
				continue
			}
			x.insert(evalPoint{point: p, lattice: batch[k], objs: objsOf(sp.Objectives, p)})
		}
		evals += len(batch)
	}
	return finish(nil)
}

// insert adds a feasible evaluated point and maintains the non-dominated
// archive incrementally.
func (x *adaptive) insert(p evalPoint) {
	x.evaluated = append(x.evaluated, p)
	x.choices = append(x.choices, x.space.choiceAt(p.lattice))
	idx := len(x.evaluated) - 1
	keep := x.archive[:0]
	for _, ai := range x.archive {
		if dominates(x.evaluated[ai].objs, p.objs) {
			return // dominated; archive unchanged (prefix already intact)
		}
		if !dominates(p.objs, x.evaluated[ai].objs) {
			keep = append(keep, ai)
		}
	}
	x.archive = append(keep, idx)
}

// propose draws unvisited candidates for one generation: mutations of
// archive incumbents most of the time, uniform jumps otherwise, with a
// lattice scan as the collision fallback so the budget is always
// spendable while unvisited points remain. Once the surrogate has enough
// evaluated points to interpolate, the draw oversamples and keeps only
// the want proposals the predictor ranks most promising; the rejected
// draws are released back to unvisited so later generations can revisit
// them.
func (x *adaptive) propose(want int) []int64 {
	var out []int64
	add := func(lat int64) bool {
		if _, ok := x.visited[lat]; ok {
			return false
		}
		x.visited[lat] = struct{}{}
		out = append(out, lat)
		return true
	}
	if len(x.visited) == 0 {
		// Deterministic anchors: the lattice corners bracket every axis.
		add(0)
		if len(out) < want {
			add(x.space.size - 1)
		}
	}
	pool := want
	surrogate := !x.sp.noSurrogate && len(x.evaluated) >= surrogateMinEvals
	if surrogate {
		pool = want * surrogateOversample
	}
	// The plain stream heavily favors mutating incumbents; the ranked
	// stream can afford a wilder pool — half uniform jumps — because the
	// predictor discards the hopeless ones for free, and the extra spread
	// is where new frontier regions come from.
	mutateP := 0.8
	if surrogate {
		mutateP = 0.5
	}
	for len(out) < pool && int64(len(x.visited)) < x.space.size {
		var lat int64
		found := false
		for try := 0; try < proposalRetries; try++ {
			if len(x.archive) > 0 && x.rng.Float64() < mutateP {
				parent := x.evaluated[x.archive[x.rng.Intn(len(x.archive))]]
				lat = x.mutate(parent.lattice)
			} else {
				lat = x.rng.Int63n(x.space.size)
			}
			if _, ok := x.visited[lat]; !ok {
				found = true
				break
			}
		}
		if !found {
			// Scan forward from a random start for the next unvisited
			// index. The visited set is at most Budget entries, so this
			// terminates quickly even in huge lattices.
			lat = x.rng.Int63n(x.space.size)
			for {
				if _, ok := x.visited[lat]; !ok {
					break
				}
				lat++
				if lat == x.space.size {
					lat = 0
				}
			}
		}
		add(lat)
	}
	if !surrogate || len(out) <= want {
		return out
	}
	// The ranked pool always offers every unvisited immediate lattice
	// neighbor of the archive: on smooth objective landscapes the points
	// completing the frontier usually sit one step from the incumbents
	// that bracket them, and waiting for the mutation stream to draw that
	// exact step wastes generations. The predictor decides — a neighbor
	// earns its slot like any other proposal.
	for _, ai := range x.archive {
		choice := x.space.choiceAt(x.evaluated[ai].lattice)
		for ax := range choice {
			orig := choice[ax]
			for _, step := range [2]int{-1, 1} {
				c := orig + step
				if c < 0 || c >= len(x.space.params[ax]) {
					continue
				}
				choice[ax] = c
				add(x.space.indexOf(choice))
			}
			choice[ax] = orig
		}
	}
	return x.surrogateSelect(out, want)
}

// surrogateSelect ranks an oversampled proposal pool by predicted
// objectives and keeps the want most promising, releasing the rest back
// to unvisited. Selection fills one slot at a time: each slot takes the
// unselected proposal with the fewest archive points dominating its
// prediction (a proposal predicted onto the frontier beats one predicted
// behind it), tie-broken by the slot's rotating emphasized objective and
// then draw order. Rotating the emphasis spreads the kept candidates
// along the predicted frontier instead of piling them onto one
// compromise region — a frontier search needs corners as much as knees.
// The whole procedure is deterministic arithmetic over the generation
// boundary's archive.
func (x *adaptive) surrogateSelect(pool []int64, want int) []int64 {
	x.surRanked += len(pool)
	nobj := len(x.sp.Objectives)
	refs := make([]float64, nobj)
	for j := range refs {
		ref := x.evaluated[0].objs[j]
		for i := range x.evaluated {
			if v := x.evaluated[i].objs[j]; v < ref {
				ref = v
			}
		}
		if ref <= 0 {
			ref = 1
		}
		refs[j] = ref
	}
	dom := make([]int, len(pool))
	norm := make([][]float64, len(pool))
	choices := make([][]int, len(pool))
	for i := range pool {
		choices[i] = x.space.choiceAt(pool[i])
		pred := x.predict(choices[i])
		for _, ai := range x.archive {
			if dominates(x.evaluated[ai].objs, pred) {
				dom[i]++
			}
		}
		for j := range pred {
			pred[j] /= refs[j]
		}
		norm[i] = pred
	}
	// crowded marks proposals within crowdD2 (normalized squared choice
	// distance) of an already-kept pick: mutations of one parent often
	// land next to each other with near-identical predictions, and a
	// generation spent on clones measures one region several times.
	// Crowded proposals rank behind every uncrowded one but remain
	// eligible — a pool of clones still fills its slots.
	const crowdD2 = 0.01
	crowded := make([]bool, len(pool))
	taken := make([]bool, len(pool))
	kept := make([]int64, 0, want)
	for s := 0; s < want; s++ {
		obj := s % nobj
		pick := -1
		better := func(i, p int) bool {
			if crowded[i] != crowded[p] {
				return !crowded[i]
			}
			if dom[i] != dom[p] {
				return dom[i] < dom[p]
			}
			return norm[i][obj] < norm[p][obj]
		}
		for i := range pool {
			if taken[i] {
				continue
			}
			if pick < 0 || better(i, pick) {
				pick = i
			}
		}
		taken[pick] = true
		kept = append(kept, pool[pick])
		for i := range pool {
			if taken[i] || crowded[i] {
				continue
			}
			d2 := 0.0
			for ax, c := range choices[i] {
				if n := len(x.space.params[ax]); n > 1 {
					d := float64(c-choices[pick][ax]) / float64(n-1)
					d2 += d * d
				}
			}
			if d2 < crowdD2 {
				crowded[i] = true
			}
		}
	}
	for i := range pool {
		if !taken[i] {
			delete(x.visited, pool[i])
		}
	}
	x.surKept += len(kept)
	return kept
}

// predict estimates the objective vector of an unvisited choice vector by
// inverse-square-distance-weighted interpolation over its nearest
// evaluated points. Distances are Euclidean in normalized choice space —
// each axis contributes its position difference as a fraction of the
// axis's span — so axes with many values don't drown out binary ones.
// With objectives that vary smoothly along axes (scaling factors, clock
// rates, capacity steps — the common case for architecture levers) nearby
// measurements are the best available estimate; discontinuities just cost
// the surrogate accuracy, never correctness, since ranking only reorders
// which candidates get real evaluations.
func (x *adaptive) predict(choice []int) []float64 {
	// Nearest surrogateNeighbors evaluated points by squared distance,
	// ties by evaluation order (deterministic).
	type near struct {
		d2 float64
		i  int
	}
	nn := make([]near, 0, surrogateNeighbors)
	for i := range x.evaluated {
		pc := x.choices[i]
		d2 := 0.0
		for ax, c := range choice {
			if n := len(x.space.params[ax]); n > 1 {
				d := float64(c-pc[ax]) / float64(n-1)
				d2 += d * d
			}
		}
		if len(nn) < surrogateNeighbors {
			nn = append(nn, near{d2, i})
			continue
		}
		worst := 0
		for k := 1; k < len(nn); k++ {
			if nn[k].d2 > nn[worst].d2 || (nn[k].d2 == nn[worst].d2 && nn[k].i > nn[worst].i) {
				worst = k
			}
		}
		if d2 < nn[worst].d2 {
			nn[worst] = near{d2, i}
		}
	}
	pred := make([]float64, len(x.sp.Objectives))
	den := 0.0
	for _, nb := range nn {
		w := 1 / (nb.d2 + surrogateEps)
		den += w
		for j, v := range x.evaluated[nb.i].objs {
			pred[j] += w * v
		}
	}
	for j := range pred {
		pred[j] /= den
	}
	return pred
}

// mutate perturbs a parent's choice vector: one or two axes move, each
// either one lattice step (local refinement, the common case) or to a
// uniform value (exploration).
func (x *adaptive) mutate(parent int64) int64 {
	choice := x.space.choiceAt(parent)
	edits := 1 + x.rng.Intn(2)
	for e := 0; e < edits; e++ {
		i := x.rng.Intn(len(choice))
		n := len(x.space.params[i])
		if n == 1 {
			continue
		}
		if x.rng.Float64() < 0.7 {
			step := 1
			if x.rng.Intn(2) == 0 {
				step = -1
			}
			c := choice[i] + step
			if c < 0 || c >= n {
				c = choice[i] - step
			}
			choice[i] = c
		} else {
			choice[i] = x.rng.Intn(n)
		}
	}
	return x.space.indexOf(choice)
}
