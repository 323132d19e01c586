// Package mapper searches the mapping space of a layer on an architecture
// for schedules minimizing energy, delay, or energy-delay product, in the
// spirit of Timeloop's mapper: the paper relies on the mapper to find
// mappings that exploit available reuse to minimize expensive cross-domain
// conversions and DRAM traffic.
//
// The search combines (1) exhaustive enumeration of the architecture's
// rigid spatial-factor assignments, (2) randomized temporal factorizations
// with padding-aware candidates, (3) a small library of stationarity-driven
// loop permutations, and (4) greedy hill climbing on the best random
// seeds, optionally across parallel workers with a deterministic merge.
//
// The search inner loop runs on the compiled evaluation engine
// (model.Compiled): per-worker scratch buffers, no itemized energy ledger,
// and a fingerprint cache that skips re-evaluating schedules already
// scored. Searching many layers on one architecture should go through a
// shared Session, which hoists the architecture's invariants (resolved
// energy tables, spatial-assignment enumeration, minimum loop levels) out
// of the per-layer calls.
package mapper

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"

	"photoloop/internal/arch"
	"photoloop/internal/mapping"
	"photoloop/internal/model"
	"photoloop/internal/workload"
)

// Objective selects what the search minimizes.
type Objective uint8

// Objectives.
const (
	MinEnergy Objective = iota // total picojoules
	MinDelay                   // cycles
	MinEDP                     // energy-delay product
)

// ParseObjective converts an objective name ("energy", "delay", "edp").
func ParseObjective(name string) (Objective, error) {
	switch name {
	case "energy":
		return MinEnergy, nil
	case "delay":
		return MinDelay, nil
	case "edp":
		return MinEDP, nil
	}
	return 0, fmt.Errorf("mapper: unknown objective %q (want energy, delay or edp)", name)
}

// String names the objective.
func (o Objective) String() string {
	switch o {
	case MinEnergy:
		return "energy"
	case MinDelay:
		return "delay"
	case MinEDP:
		return "edp"
	}
	return fmt.Sprintf("Objective(%d)", uint8(o))
}

// Options configures a search.
type Options struct {
	// Objective is what to minimize (default MinEnergy).
	Objective Objective
	// Budget caps the number of candidate attempts (default 1000; see
	// docs/PERFORMANCE.md for the calibration — cap-aware drawing made a
	// budget unit buy ~2.4x more scored candidates, so 1000 today scores
	// more real candidates than 2000 did when 2000 was chosen). It is
	// split across Workers with the remainder distributed one-per-worker,
	// so the configured budget is spendable exactly; a converging hill
	// climb may stop early, so Evaluations <= Budget (+ warm starts).
	Budget int
	// Seed makes the search deterministic (default 1).
	Seed int64
	// Workers parallelizes the search (default GOMAXPROCS, capped at 8).
	//
	// Determinism contract: results are exactly reproducible for a fixed
	// (Seed, Workers) pair — pinned by tests. Different Workers values
	// return different (individually deterministic) results, and that is
	// inherent to the design, not an implementation accident: each worker
	// draws from its own seeded rng stream and owns a slice of the
	// budget, so the sampled candidate set itself depends on the split.
	// Callers needing machine-independent results must pin Workers
	// explicitly rather than relying on the GOMAXPROCS default.
	Workers int
	// Eval forwards evaluation options to the model. ChargeStatic changes
	// what candidate schedules are scored on; SkipValidate skips the
	// structural validation of candidate mappings (set it only when every
	// seed and random draw is known valid — the search trusts it).
	Eval model.Options
	// Seeds are mappings evaluated before random exploration (e.g. an
	// architecture's canonical schedules); the hill climber starts from
	// the best of seeds and random samples. Build them with SeedList or
	// LazySeeds; only their fingerprints enter the cache key, and the
	// mappings are built only when the search runs.
	Seeds Seeds
	// WarmStarts are incumbent mappings threaded in from structurally
	// related, already-solved searches — the same layer shape on a
	// neighboring sweep point, typically. They are validated against this
	// (architecture, layer) pair (inapplicable ones are silently dropped)
	// and evaluated after Seeds without consuming Budget, so they only
	// tighten the pruning cutoff early: with a good warm start the
	// admissible lower bound discards most random candidates from the
	// first draw. A warm-started search is deterministic given identical
	// WarmStarts; its Best usually improves on (and may differ from) the
	// cold search's, because the warm candidates join the pool and the
	// hill climber may start from one of them.
	WarmStarts []*mapping.Mapping
	// Cache, when non-nil, deduplicates searches across calls: searches
	// with equal (architecture, layer shape, options) fingerprints run
	// once and share the result. Sweeps and long-lived services set it;
	// results are bit-identical with or without a cache.
	Cache *Cache
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.Budget <= 0 {
		out.Budget = 1000
	}
	if out.Seed == 0 {
		out.Seed = 1
	}
	if out.Workers <= 0 {
		out.Workers = DefaultSearchWorkers()
	}
	return out
}

// DefaultSearchWorkers is the per-search worker pool size used when
// Options.Workers is unset: GOMAXPROCS capped at 8. Outer pools (the
// sweep's point pool) divide their own defaults by it to avoid
// oversubscribing the CPU.
func DefaultSearchWorkers() int {
	n := runtime.GOMAXPROCS(0)
	if n > 8 {
		n = 8
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Best is a search outcome.
type Best struct {
	Mapping *mapping.Mapping
	Result  *model.Result
	// Evaluations counts candidate attempts charged against the budget
	// (duplicates, invalid candidates and pruned candidates included —
	// each consumed one draw) plus any warm-start evaluations.
	Evaluations int
	// Stats breaks down how the search spent its candidate stream.
	Stats SearchStats
}

// SearchStats counts how a search's candidate stream was dispatched. The
// identity Pruned + DeltaEvals + FullEvals + Duplicates + invalid/failed
// candidates = Evaluations holds per search (warm starts excepted).
type SearchStats struct {
	// Pruned counts candidates discarded because the admissible lower
	// bound (model.Compiled.LowerBound) proved they could not beat the
	// incumbent; they were never fully evaluated.
	Pruned int
	// DeltaEvals counts full evaluations that reused shared-prefix state
	// from the previous evaluation (model.Compiled.EvaluatePartial with a
	// non-zero shared level count).
	DeltaEvals int
	// FullEvals counts evaluations computed from scratch.
	FullEvals int
	// Duplicates counts fingerprint-deduplicated candidates.
	Duplicates int
	// Invalid counts candidates rejected by structural validation.
	Invalid int
	// WarmStartEvals counts warm-start candidates evaluated on top of the
	// budget (see Options.WarmStarts).
	WarmStartEvals int
}

func (s *SearchStats) add(o SearchStats) {
	s.Pruned += o.Pruned
	s.DeltaEvals += o.DeltaEvals
	s.FullEvals += o.FullEvals
	s.Duplicates += o.Duplicates
	s.Invalid += o.Invalid
	s.WarmStartEvals += o.WarmStartEvals
}

// PrunedFraction returns the share of scoreable candidates (valid,
// non-duplicate) the lower bound discarded without a full evaluation.
func (s SearchStats) PrunedFraction() float64 {
	total := s.Pruned + s.DeltaEvals + s.FullEvals
	if total == 0 {
		return 0
	}
	return float64(s.Pruned) / float64(total)
}

// Score returns the objective value of a result.
func Score(obj Objective, r *model.Result) float64 {
	switch obj {
	case MinDelay:
		return r.Cycles
	case MinEDP:
		return r.TotalPJ * r.Cycles
	default:
		return r.TotalPJ
	}
}

// stationarity-driven permutation candidates: placing a tensor's
// irrelevant dimensions innermost keeps that tensor's inner tiles
// stationary across those loops.
var permCandidates = [][]workload.Dim{
	// Output stationary: reduction loops innermost.
	{workload.DimN, workload.DimK, workload.DimP, workload.DimQ, workload.DimC, workload.DimR, workload.DimS},
	// Weight stationary: N, P, Q innermost.
	{workload.DimK, workload.DimC, workload.DimR, workload.DimS, workload.DimN, workload.DimP, workload.DimQ},
	// Input stationary: K innermost.
	{workload.DimC, workload.DimP, workload.DimQ, workload.DimR, workload.DimS, workload.DimN, workload.DimK},
}

// Session caches everything about one architecture that every layer search
// reuses: the compiled evaluation engine, the enumerated rigid
// spatial-factor assignments, and the per-dimension minimum loop levels.
// A Session is immutable after construction and safe for concurrent use.
type Session struct {
	a           *arch.Arch
	eng         *model.Engine
	assignments [][]workload.Dim
	minLv       workload.Point
	fp          uint64
	// tpOne flags levels whose MaxTemporalProduct forbids any temporal
	// loop (analog accumulators, ring banks): the random draw skips them
	// instead of wasting its budget on candidates that can never validate.
	tpOne []bool
	// capped lists the levels carrying any MaxTemporalProduct cap, so the
	// hot-loop structural pre-checks visit only those instead of probing
	// every level's cap through the architecture.
	capped []capLevel
	// workers pools per-worker search state (scratch, buffers, dedup
	// set, draw arena) across Search calls on this session.
	workers sync.Pool
}

// capLevel is one temporal-product-capped level for the pre-reject checks.
type capLevel struct {
	level int
	tp    int64
}

// splitmix64 is the search's deterministic rand.Source64: SplitMix64
// (Steele et al.), two multiplies and three xor-shifts per draw. The
// standard library's seeded source initializes a 607-word feedback table
// per instance, which showed up in search profiles — every Search call
// creates fresh per-worker sources to keep (seed, budget) reproducible.
type splitmix64 struct{ x uint64 }

func (s *splitmix64) Seed(seed int64) { s.x = uint64(seed) }

func (s *splitmix64) Uint64() uint64 {
	s.x += 0x9e3779b97f4a7c15
	z := s.x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix64) Int63() int64 { return int64(s.Uint64() >> 1) }

// workerState pools one search worker's reusable allocations across
// Search calls on its Session: the evaluation scratch, the shared result
// buffer, the candidate ping-pong buffers, the dedup set and the draw
// arena. A warm worker draws, pre-filters and orders its exploration
// stream without allocating. bufLast and climbed let every hill climb of
// a multi-objective search restart from the exploration's state.
type workerState struct {
	scratch *model.Scratch
	res     *model.Result
	bufA    *mapping.Mapping
	bufB    *mapping.Mapping
	bufLast *mapping.Mapping
	seen    map[uint64]struct{}
	climbed []uint64
	draw    drawArena
}

// objState is one objective's share of a search worker: its incumbent,
// pruning cutoff, funnel stats and budget spent. chain says the delta
// baseline its DeltaEvals/FullEvals split is classified against is the
// last staged mapping (a failed FinishStaged breaks it only for the
// objectives that asked for the finish); scored and delta are its verdict
// on the last tried candidate.
type objState struct {
	obj                  Objective
	best                 *Best
	cutoff               *model.Result
	st                   SearchStats
	evals                int
	chain, scored, delta bool
}

// drawArena holds the random-exploration buffers of one search worker.
// Each search overwrites the prefix it uses, so none of them needs
// clearing between searches except remTab, whose touched entries are
// reset after every draw.
type drawArena struct {
	perms []uint8          // k*n permutation picks, candidate-major
	temps []workload.Point // k*n temporal factors, candidate-major
	cands []candidate
	order []scoredCand
	// padded caches mapping.PaddedCandidates by bound. The lists depend
	// on the bound alone, so the table lives across searches and layers.
	padded [][]int
	// remTab holds the remaining temporal bounds per spatial assignment
	// for the layer being drawn (zero: not computed yet); touched lists
	// the entries the draw filled in.
	remTab  []workload.Point
	touched []int32
}

// scoredCand is one pre-filtered candidate in the scoring order: its
// candidateKey and its draw index, the order's tie break.
type scoredCand struct {
	key uint64
	ci  int32
}

// takeWorker takes a worker state from the session's pool, building one
// when the pool is empty.
func (s *Session) takeWorker() *workerState {
	if ws, _ := s.workers.Get().(*workerState); ws != nil {
		return ws
	}
	return &workerState{
		scratch: s.eng.NewScratch(),
		res:     &model.Result{},
		bufA:    mapping.New(s.a),
		bufB:    mapping.New(s.a),
		bufLast: mapping.New(s.a),
		seen:    make(map[uint64]struct{}, 512),
	}
}

// NewSession prepares an architecture for repeated searches.
func NewSession(a *arch.Arch) (*Session, error) {
	eng, err := model.NewEngine(a)
	if err != nil {
		return nil, err
	}
	s := &Session{
		a:           a,
		eng:         eng,
		assignments: enumerateSpatialAssignments(a),
		minLv:       minLevels(a),
		fp:          a.Fingerprint(),
		tpOne:       make([]bool, a.NumLevels()),
	}
	for i := range s.tpOne {
		tp := a.Level(i).MaxTemporalProduct
		s.tpOne[i] = tp == 1
		if tp > 0 {
			s.capped = append(s.capped, capLevel{level: i, tp: int64(tp)})
		}
	}
	if len(s.assignments) == 0 {
		return nil, errors.New("mapper: no spatial assignments")
	}
	return s, nil
}

// maxCachedSessions caps the process-wide session cache below. Sessions are
// small (resolved energy tables plus the assignment enumeration), but
// exploration runs build hundreds of architecture variants; past the cap
// the cache resets rather than growing without bound.
const maxCachedSessions = 256

// sessionCache reuses Sessions across one-shot Search/SearchNetwork calls,
// keyed by the architecture fingerprint (which covers structure and
// component energies — the same key the search Cache dedups on). Building
// a session costs ~100µs of engine resolution and assignment enumeration,
// which used to dominate short searches issued through the package-level
// helpers.
var (
	sessionCacheMu sync.Mutex
	sessionCache   = map[uint64]*Session{}
)

func sessionFor(a *arch.Arch) (*Session, error) {
	fp := a.Fingerprint()
	sessionCacheMu.Lock()
	s := sessionCache[fp]
	sessionCacheMu.Unlock()
	if s != nil {
		return s, nil
	}
	s, err := NewSession(a)
	if err != nil {
		return nil, err
	}
	sessionCacheMu.Lock()
	if len(sessionCache) >= maxCachedSessions {
		sessionCache = make(map[uint64]*Session, maxCachedSessions)
	}
	sessionCache[fp] = s
	sessionCacheMu.Unlock()
	return s, nil
}

// Engine returns the session's compiled evaluation engine.
func (s *Session) Engine() *model.Engine { return s.eng }

// Fingerprint returns the session architecture's fingerprint, the Arch
// half of every cache Key the session searches under.
func (s *Session) Fingerprint() uint64 { return s.fp }

// Search finds the best mapping for the layer under the options. It is a
// convenience wrapper reusing a process-wide Session cache keyed by the
// architecture fingerprint; prefer NewSession + Session.Search when mapping
// several layers on the same architecture.
func Search(a *arch.Arch, l *workload.Layer, opts Options) (*Best, error) {
	s, err := sessionFor(a)
	if err != nil {
		return nil, err
	}
	return s.Search(l, opts)
}

// Search finds the best mapping for the layer under the options: the
// one-objective SearchObjectives.
func (s *Session) Search(l *workload.Layer, opts Options) (*Best, error) {
	bests, err := s.SearchObjectives(l, opts, []Objective{opts.Objective})
	if err != nil {
		return nil, err
	}
	return bests[0], nil
}

// SearchObjectives finds the best mapping for the layer under the options
// once per objective in objs (opts.Objective is ignored): bests[i] is
// bit-identical to Search with Objective objs[i], Stats included. The
// objectives share one exploration (seeds, warm starts and random draws
// are staged once), then each hill-climbs from its own incumbent. With a
// Cache, each objective is its own key, as in a separate search.
func (s *Session) SearchObjectives(l *workload.Layer, opts Options, objs []Objective) ([]*Best, error) {
	if err := l.Validate(); err != nil || len(objs) == 0 {
		return nil, err
	}
	o := opts.withDefaults()
	if o.Cache != nil {
		return o.Cache.search(s, l, o, objs)
	}
	return s.search(l, o, objs)
}

// splitBudget distributes budget over workers without dropping the
// remainder: the first budget%workers workers get one extra evaluation, so
// the sum is exactly budget. (The previous integer division silently spent
// workers*floor(budget/workers); a budget below the worker count now runs
// budget single-evaluation workers instead of overspending.)
func splitBudget(budget, workers int) []int {
	out := make([]int, workers)
	base, rem := budget/workers, budget%workers
	for w := range out {
		out[w] = base
		if w < rem {
			out[w]++
		}
	}
	return out
}

// search runs the uncached search for each objective; o must have
// defaults applied.
func (s *Session) search(l *workload.Layer, o Options, objs []Objective) ([]*Best, error) {
	c, err := s.eng.Compile(l)
	if err != nil {
		return nil, err
	}
	// Built once here, shared read-only by every worker.
	seeds, err := o.Seeds.mappings()
	if err != nil {
		return nil, err
	}

	// Keep only warm starts that actually apply to this (arch, layer):
	// they come from neighboring searches and may not transfer.
	var warm []*mapping.Mapping
	for _, w := range o.WarmStarts {
		if w != nil && w.Valid(s.a, l) {
			warm = append(warm, w)
		}
	}

	// Worker w's objective states are states[w*len(objs):][:len(objs)].
	wss := make([]*workerState, o.Workers)
	states := make([]objState, o.Workers*len(objs))
	for i := range states {
		states[i].obj = objs[i%len(objs)]
	}
	var wg sync.WaitGroup
	budgets := splitBudget(o.Budget, o.Workers)
	for w := range wss {
		// Worker states leave and rejoin the pool on this goroutine, so a
		// serial caller's next search finds them in the same
		// processor-local pool slots instead of building new ones.
		wss[w] = s.takeWorker()
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			seed := uint64(o.Seed + int64(w)*7919)
			s.searchWorker(wss[w], c, l, o, seed, budgets[w], seeds, warm, states[w*len(objs):][:len(objs)])
		}(w)
	}
	wg.Wait()
	defer func() {
		for _, ws := range wss {
			s.workers.Put(ws)
		}
	}()

	// The workers score candidates without the itemized energy ledger;
	// re-evaluate each winner once in full, on a worker's scratch, so
	// callers can inspect it.
	fullOpts := o.Eval
	fullOpts.SkipValidate = true
	fullOpts.FullLedger = true
	bests := make([]*Best, len(objs))
	for j, obj := range objs {
		var best *Best
		evals := 0
		var stats SearchStats
		for w := range wss {
			ob := &states[w*len(objs)+j]
			evals += ob.evals
			stats.add(ob.st)
			if ob.best != nil && (best == nil || better(obj, ob.best, best)) {
				best = ob.best
			}
		}
		if best == nil {
			return nil, fmt.Errorf("mapper: no valid mapping found for %s on %s", l.Name, s.a.Name)
		}
		best.Evaluations = evals + stats.WarmStartEvals
		best.Stats = stats
		full := &model.Result{}
		if err := c.EvaluateInto(wss[0].scratch, best.Mapping, full, fullOpts); err != nil {
			return nil, err
		}
		best.Result = full
		bests[j] = best
	}
	return bests, nil
}

// assignmentRemaining computes the per-dimension temporal bound left after
// one flat spatial assignment, without materializing a mapping (all free
// spatial factors are 1 in mapper-drawn candidates).
func assignmentRemaining(a *arch.Arch, assign []workload.Dim, l *workload.Layer) workload.Point {
	spatial := workload.Ones()
	idx := 0
	for i := 0; i < a.NumLevels(); i++ {
		for j := range a.Level(i).Spatial {
			spatial[assign[idx+j]] *= a.Level(i).Spatial[j].Count
		}
		idx += len(a.Level(i).Spatial)
	}
	rem := workload.Ones()
	for _, d := range workload.AllDims() {
		rem[d] = workload.CeilDiv(l.Bound(d), spatial[d])
	}
	return rem
}

// better compares candidates with deterministic tie breaks: the objective,
// then total energy (a bandwidth-bound layer has many equal-delay mappings
// — prefer the cheapest), then utilization, then a stable textual order.
func better(obj Objective, x, y *Best) bool {
	return betterEval(obj, x.Result, x.Mapping, y)
}

// betterEval is better() without requiring the candidate to be wrapped in
// a Best (the hot loop compares scratch-owned results before cloning).
func betterEval(obj Objective, r *model.Result, m *mapping.Mapping, y *Best) bool {
	sx, sy := Score(obj, r), Score(obj, y.Result)
	if sx != sy {
		return sx < sy
	}
	if r.TotalPJ != y.Result.TotalPJ {
		return r.TotalPJ < y.Result.TotalPJ
	}
	if r.Utilization != y.Result.Utilization {
		return r.Utilization > y.Result.Utilization
	}
	return mappingStringLess(m, y.Mapping)
}

// tieBufPool holds render buffers for the final textual tie-break:
// full-tie comparisons are frequent enough (equal-energy spatial
// assignments, delay-tied schedules) that building two strings through fmt
// showed up in whole-figure profiles.
var tieBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

// mappingStringLess reports m.String() < y.String() without allocating.
func mappingStringLess(m, y *mapping.Mapping) bool {
	bp := tieBufPool.Get().(*[]byte)
	yp := tieBufPool.Get().(*[]byte)
	mb := m.AppendString((*bp)[:0])
	yb := y.AppendString((*yp)[:0])
	less := bytes.Compare(mb, yb) < 0
	*bp, *yp = mb[:0], yb[:0]
	tieBufPool.Put(bp)
	tieBufPool.Put(yp)
	return less
}

// boundScore projects an admissible bound onto the objective's score
// scale. For EDP the product of two positive lower bounds is a lower bound
// of the product.
func boundScore(obj Objective, b model.Bound) float64 {
	switch obj {
	case MinDelay:
		return b.Cycles
	case MinEDP:
		return b.EnergyPJ * b.Cycles
	default:
		return b.EnergyPJ
	}
}

// candidate is the compact form of one random draw: everything needed to
// materialize the mapping without holding a full Mapping per draw, so the
// exploration stream can be drawn up front (preserving the legacy rng
// sequence exactly) and then scored in an order that maximizes shared
// evaluation state.
type candidate struct {
	assign   int32
	perm     []uint8          // per level, index into permCandidates
	temporal []workload.Point // per level
}

// drawCandidates draws the exploration stream — the same rng calls in the
// same order as one randomMapping per loop iteration — into k compact
// candidates, so the set is identical to what an interleaved draw-and-score
// loop would produce; only the scoring order changes, which cannot change
// the argmin (the incumbent comparison is a strict total order over
// distinct schedules).
//
// The draw is cap-aware: levels whose MaxTemporalProduct forbids any
// temporal loop are skipped in both the factor chains and the permutation
// draws. On photonic hierarchies (Albireo's analog accumulator, partial-sum
// and ring-bank levels) the blind draw landed a temporal factor on a capped
// level in essentially every candidate, so the whole random budget used to
// die in validation; skipping them redirects that budget to schedules that
// can actually win. A capped level's permutation is inert (it has no loops)
// and stays at the first candidate order.
//
// The candidates live in the worker's arena da and stay valid until its
// next draw; a warm arena draws without allocating.
func (s *Session) drawCandidates(da *drawArena, l *workload.Layer, rng *rand.Rand, k, n int) []candidate {
	da.perms = slices.Grow(da.perms[:0], k*n)[:k*n]
	da.temps = slices.Grow(da.temps[:0], k*n)[:k*n]
	da.cands = slices.Grow(da.cands[:0], k)[:k]
	if len(da.remTab) != len(s.assignments) {
		da.remTab = make([]workload.Point, len(s.assignments))
	}
	minLv := s.minLv
	for ci := range da.cands {
		cand := &da.cands[ci]
		cand.perm = da.perms[ci*n : (ci+1)*n : (ci+1)*n]
		cand.temporal = da.temps[ci*n : (ci+1)*n : (ci+1)*n]
		ai := 0
		if rng.Intn(2) == 0 {
			ai = rng.Intn(len(s.assignments))
		}
		cand.assign = int32(ai)
		// Remaining temporal bounds per assignment, computed lazily: a
		// draw stream touches a handful of the enumerated assignments.
		rem := da.remTab[ai]
		if rem == (workload.Point{}) {
			rem = assignmentRemaining(s.a, s.assignments[ai], l)
			da.remTab[ai] = rem
			da.touched = append(da.touched, int32(ai))
		}
		for i := range cand.temporal {
			cand.temporal[i] = workload.Ones()
		}
		for _, d := range workload.AllDims() {
			left := rem[d]
			for i := n - 1; i > minLv[d] && left > 1; i-- {
				if s.tpOne[i] {
					continue
				}
				cs := da.paddedCands(left)
				f := cs[rng.Intn(len(cs))]
				cand.temporal[i][d] = f
				left = workload.CeilDiv(left, f)
			}
			cand.temporal[minLv[d]][d] *= left
		}
		for i := 0; i < n; i++ {
			var p uint8 // a capped level keeps the first order
			if !s.tpOne[i] {
				p = uint8(rng.Intn(len(permCandidates)))
			}
			cand.perm[i] = p
		}
	}
	// The next draw may be for another layer: forget this one's bounds.
	for _, ai := range da.touched {
		da.remTab[ai] = workload.Point{}
	}
	da.touched = da.touched[:0]
	return da.cands
}

// paddedCands returns mapping.PaddedCandidates(bound). That consults a
// process-global sync.Map; the arena's index-addressed table is markedly
// cheaper in the draw loop. Bounds are small (remaining temporal trip
// counts); truly huge ones fall through.
func (d *drawArena) paddedCands(bound int) []int {
	const direct = 1 << 14
	if bound >= direct {
		return mapping.PaddedCandidates(bound)
	}
	if bound >= len(d.padded) {
		d.padded = append(d.padded, make([][]int, bound+1-len(d.padded))...)
	}
	if c := d.padded[bound]; c != nil {
		return c
	}
	c := mapping.PaddedCandidates(bound)
	d.padded[bound] = c
	return c
}

// candidateKey packs a candidate's grouping fields into one word for the
// scoring-order sort: the spatial assignment in the high half, then the
// per-level permutation picks of the outermost 16 levels (2 bits each —
// permCandidates has 3 entries). Sorting by key groups candidates that
// share an assignment and permutation set; key ties keep draw order, so
// (key, draw index) is a deterministic total order. A single-word compare
// replaced a field-by-field comparator that dominated the sort's cost —
// any deterministic order yields the same search outcome (the incumbent
// comparison is a strict total order over distinct schedules).
func candidateKey(cand *candidate) uint64 {
	k := uint64(uint32(cand.assign)) << 32
	for i, p := range cand.perm {
		if i == 16 {
			break
		}
		k |= uint64(p&3) << (30 - 2*i)
	}
	return k
}

// materialize writes a compact candidate into buf, producing exactly the
// mapping randomMapping would have returned for the same draws. spatialOK
// asserts buf's spatial configuration (FreeSpatial and SpatialChoice) was
// last written for the same assignment and left untouched since — Temporal
// and Perm writes don't disturb it — so the applyAssignment rewrite would
// reproduce the bytes already there and is skipped. The scoring order
// groups candidates by assignment, so the skip hits on nearly every
// candidate after the first two of each run (one per ping-pong buffer).
func (s *Session) materialize(buf *mapping.Mapping, cand *candidate, spatialOK bool) {
	for i := range buf.Levels {
		lm := &buf.Levels[i]
		lm.Temporal = cand.temporal[i]
		if !spatialOK {
			lm.FreeSpatial = workload.Ones()
		}
		lm.Perm = append(lm.Perm[:0], permCandidates[cand.perm[i]]...)
	}
	if !spatialOK {
		applyAssignment(s.a, buf, s.assignments[cand.assign])
	}
}

// levelConfigEqual reports whether two level mappings are configured
// identically — the condition under which every evaluation-internal value
// derived from that level is bit-identical.
func levelConfigEqual(a, b *mapping.LevelMapping) bool {
	if a.Temporal != b.Temporal || a.FreeSpatial != b.FreeSpatial ||
		len(a.SpatialChoice) != len(b.SpatialChoice) || len(a.Perm) != len(b.Perm) {
		return false
	}
	for i := range a.SpatialChoice {
		if a.SpatialChoice[i] != b.SpatialChoice[i] {
			return false
		}
	}
	for i := range a.Perm {
		if a.Perm[i] != b.Perm[i] {
			return false
		}
	}
	return true
}

// levelsShared counts the leading storage levels on which two mappings are
// configured identically — the delta EvaluatePartial may reuse.
func levelsShared(prev, m *mapping.Mapping) int {
	if prev == nil || len(prev.Levels) != len(m.Levels) {
		return 0
	}
	for i := range m.Levels {
		if !levelConfigEqual(&prev.Levels[i], &m.Levels[i]) {
			return i
		}
	}
	return len(m.Levels)
}

// searchWorker runs one worker's slice of the search for every objective
// in states: seeds, warm starts and the (reordered) random exploration
// once for all of them, then one hill climb per objective. Each
// objective's outcome is bit-identical to a naive single-objective worker
// that validates and fully evaluates every candidate in draw order for
// the same (seed, budget) — the lower-bound gate only discards candidates
// that provably cannot win, and delta evaluation reproduces full
// evaluations exactly (both properties are pinned against such a
// reference search by equivalence tests). Sharing the exploration is
// exact: only pruning and retention depend on the objective, and until
// the first retention nothing prunes, so whether an incumbent exists is
// shared too.
func (s *Session) searchWorker(ws *workerState, c *model.Compiled, l *workload.Layer, o Options, seed uint64, budget int, seeds, warm []*mapping.Mapping, states []objState) {
	if budget <= 0 {
		return
	}
	a := s.a
	n := a.NumLevels()
	defer clear(ws.seen)
	scratch, res, seen := ws.scratch, ws.res, ws.seen
	evalOpts := model.Options{SkipValidate: true, ChargeStatic: o.Eval.ChargeStatic}
	validate := !o.Eval.SkipValidate
	src := &splitmix64{x: seed}
	rng := rand.New(src)
	evals := 0

	// last is the last staged mapping, the delta baseline of every
	// objective whose chain holds (nil after a failed Stage); scratchOK
	// says the scratch's own delta baseline is last, which a failed
	// FinishStaged revokes. last's content must stay untouched until the
	// next evaluation, so candidate materialization ping-pongs between
	// two buffers.
	var last *mapping.Mapping
	scratchOK := false
	// lastSpatialKey identifies the spatial configuration of the last
	// staged mapping: the spatial-assignment index for candidates built
	// from one (warmup, random draws), -1 for mappings of unknown
	// provenance (seeds, warm starts, hill-climb cursors). Two mappings
	// built from the same assignment have bit-identical spatial
	// configurations (FreeSpatial is Ones, choices copy the assignment),
	// so a key match lets Stage skip the spatial-factor, spatial-memo and
	// instance resolution outright — no per-level comparison needed. A
	// failed Stage or FinishStaged resets it together with scratchOK, so a
	// candidate that errored is never a baseline.
	lastSpatialKey := int64(-1)
	bufA, bufB := ws.bufA, ws.bufB
	matBuf := func() *mapping.Mapping {
		if last == bufA {
			return bufB
		}
		return bufA
	}
	// Per-buffer record of which assignment's spatial configuration the
	// buffer holds (-1: unknown), letting materialize skip the rewrite.
	assignA, assignB := int32(-1), int32(-1)
	bufAssign := func(m *mapping.Mapping) *int32 {
		if m == bufA {
			return &assignA
		}
		return &assignB
	}

	// owed marks the last scored candidate as still owing its full
	// validation (1; -1 once it failed): try defers m.Valid to retention
	// time (the accept sites below), because Valid rejects almost nothing
	// (~2 of 360 candidates in BenchmarkMapperSearchSeeded's search) yet
	// walking every candidate through it cost ~11% of search. A candidate
	// that is never retained never pays for validation, and one retained
	// by several objectives pays once; an objective's delta flag
	// remembers which stats bucket its evaluation was charged to so a
	// retention-time rejection can recategorize it as Invalid, keeping the
	// accounting identity (Pruned + DeltaEvals + FullEvals + Duplicates +
	// Invalid == charged attempts) intact.
	var owed int8

	// try scores a mapping on the compiled fast path for the active
	// objectives and returns the finished result, or nil when no active
	// objective scored it (each one's verdict is in its scored flag).
	// Budget is consumed per charged attempt; schedules already
	// fingerprinted return nil without re-evaluating (an already-seen
	// schedule was scored, pruned, or failed deterministically, and can
	// never beat the incumbent, so skipping it is behavior preserving).
	//
	// Each candidate is staged once (model.Compiled.Stage): one
	// shared-prefix core resolution serves the admissible bound, and —
	// only for candidates some objective's bound cannot discard — the
	// finishing passes (FinishStaged). Pruned candidates therefore cost a
	// core resolution instead of a bound plus a full evaluation's worth of
	// resolution, and they still advance the delta-evaluation chain.
	// Pruning needs no validity and full validation is deferred to
	// retention (see owed), so an invalid candidate lands in Pruned or the
	// eval buckets unless it is retained; neither kind can become the
	// incumbent — Best is unaffected, only the stats split differs from
	// validating up front. Deferral also means an invalid schedule's
	// fingerprint enters seen (up-front validation would leave it out); a
	// later distinct schedule is shadowed only by a 64-bit fingerprint
	// collision, which the dedup already accepts for valid schedules.
	try := func(active []objState, m *mapping.Mapping, charge bool, spatialKey int64) *model.Result {
		owed = 0
		for i := range active {
			active[i].scored = false
		}
		if charge {
			if evals >= budget {
				return nil
			}
			evals++
		}
		if validate {
			// Fast subset of Valid: temporal loops on a capped level (an
			// analog accumulator, a ring bank) can never validate, and
			// hill-climb moves produce them constantly. Rejecting before
			// fingerprinting and full validation is behavior preserving —
			// invalid candidates are never recorded either way.
			for _, cl := range s.capped {
				if m.Levels[cl.level].Temporal.Product() > cl.tp {
					for i := range active {
						active[i].st.Invalid++
					}
					return nil
				}
			}
		}
		fp := m.Fingerprint()
		if _, dup := seen[fp]; dup {
			for i := range active {
				active[i].st.Duplicates++
			}
			return nil
		}
		shared, stageShared, sfShared := levelsShared(last, m), 0, 0
		if scratchOK {
			stageShared = shared
		}
		if spatialKey >= 0 && spatialKey == lastSpatialKey {
			sfShared = n
		}
		// The staged bound is a byproduct of the core resolution, so
		// checking it is free and it always prunes when it can. When the
		// one objective is pure energy, the incumbent's score doubles as
		// Stage's early-exit threshold: the bound stops accumulating once
		// the partial sum alone proves the prune. The returned (partial)
		// bound then exceeds the cutoff exactly when the full bound would,
		// so the decision below is unchanged. Other objectives, and
		// several at once, need the full bound (their scores mix in
		// cycles).
		limitPJ := math.Inf(1)
		if len(active) == 1 && active[0].obj == MinEnergy && active[0].cutoff != nil {
			limitPJ = active[0].cutoff.TotalPJ
		}
		bound, err := c.Stage(scratch, m, evalOpts, stageShared, sfShared, limitPJ)
		if err != nil {
			last, scratchOK, lastSpatialKey = nil, false, -1
			return nil
		}
		last, scratchOK, lastSpatialKey = m, true, spatialKey
		// Admissible pruning: skip the finishing passes only when every
		// objective's bound proves the candidate cannot strictly beat its
		// incumbent. The check must be a strict inequality — a candidate
		// whose true score ties the incumbent can still win the
		// deterministic tie-break.
		finish := false
		for i := range active {
			ob := &active[i]
			ob.delta = ob.chain && shared > 0
			ob.chain = true
			if ob.cutoff != nil && boundScore(ob.obj, bound) > Score(ob.obj, ob.cutoff) {
				ob.st.Pruned++
				continue
			}
			ob.scored, finish = true, true
		}
		seen[fp] = struct{}{}
		ws.climbed = append(ws.climbed, fp) // reset before each climb
		if !finish {
			return nil
		}
		if err := c.FinishStaged(scratch, res, evalOpts); err != nil {
			scratchOK, lastSpatialKey = false, -1
			for i := range active {
				if active[i].scored {
					active[i].scored, active[i].chain = false, false
				}
			}
			return nil
		}
		for i := range active {
			switch ob := &active[i]; {
			case !ob.scored:
			case ob.delta:
				ob.st.DeltaEvals++
			default:
				ob.st.FullEvals++
			}
		}
		if validate {
			owed = 1
		}
		return res
	}
	// retain runs the deferred full validation on a candidate about to be
	// accepted for ob. A rejection recategorizes ob's charged evaluation
	// of the candidate as Invalid — it was scored, but it may not win.
	retain := func(ob *objState, m *mapping.Mapping) bool {
		if owed > 0 {
			owed = 0
			if !m.Valid(a, l) {
				owed = -1
			}
		}
		if owed == 0 {
			return true
		}
		if ob.delta {
			ob.st.DeltaEvals--
		} else {
			ob.st.FullEvals--
		}
		ob.st.Invalid++
		return false
	}
	consider := func(m *mapping.Mapping, r *model.Result) {
		if r == nil {
			return
		}
		for i := range states {
			ob := &states[i]
			if ob.scored && (ob.best == nil || betterEval(ob.obj, r, m, ob.best)) && retain(ob, m) {
				ob.best = &Best{Mapping: m.Clone(), Result: r.Clone()}
				ob.cutoff = ob.best.Result
			}
		}
	}

	// Phase 0: caller-provided seed mappings, then warm starts (validated
	// always — they come from other searches — and not budget-charged).
	// Seeds are tried in place: nothing below mutates a candidate, and
	// consider clones on retention.
	for _, seed := range seeds {
		consider(seed, try(states, seed, true, -1))
	}
	for _, w := range warm {
		// Already validated once in search(); try only dedups and scores.
		r := try(states, w, false, -1)
		for i := range states {
			if states[i].scored {
				states[i].st.WarmStartEvals++
			}
		}
		consider(w, r)
	}

	// Phase 0.5: when nothing has set an incumbent yet, score the trivial
	// all-outer mapping of the first few assignments (canonical first)
	// before random exploration, so the bound gate has a cutoff from the
	// very first draw instead of fully evaluating candidates until one
	// happens to succeed. Capped at a tenth of the budget — these are
	// deliberately mediocre mappings, only there to arm the pruning gate.
	if states[0].best == nil {
		wcap := budget / 10
		if wcap > len(s.assignments) {
			wcap = len(s.assignments)
		}
		for ai, assign := range s.assignments[:wcap] {
			if evals >= budget {
				break
			}
			m := matBuf()
			outerInto(a, m, l, assign, s.minLv)
			*bufAssign(m) = int32(ai)
			consider(m, try(states, m, true, int64(ai)))
		}
	}

	// Phase 1: random sampling across spatial assignments. The canonical
	// assignment (every factor on its first-listed dimension) is the
	// architect's intended use and gets half the samples; the rest
	// explore alternates (how FC layers find channel-parallel slots).
	// The stream is drawn up front and scored grouped by (assignment,
	// permutations, outer factors) so consecutive candidates share
	// evaluation state; the candidate set — and hence the outcome — is
	// identical to the legacy interleaved loop.
	if k := budget*7/10 - evals; k > 0 {
		cands := s.drawCandidates(&ws.draw, l, rng, k, n)
		// Cheap structural pre-reject on the compact form, mirroring
		// Validate's MaxTemporalProduct rule exactly: a draw that puts
		// temporal loops on a capped level (an analog accumulator, a ring
		// bank) can never validate, so it is charged and dropped before
		// fingerprinting and materialization. The legacy loop paid a full
		// Validate per such draw. Gated on the same validate flag as
		// try(): a SkipValidate search trusts (and fully evaluates) every
		// draw, exactly like the legacy sampler. The survivors are scored
		// in (key, draw index) order.
		order := ws.draw.order[:0]
	prefilter:
		for ci := range cands {
			if validate {
				for _, cl := range s.capped {
					if cands[ci].temporal[cl.level].Product() > cl.tp {
						evals++
						for i := range states {
							states[i].st.Invalid++
						}
						continue prefilter
					}
				}
			}
			order = append(order, scoredCand{key: candidateKey(&cands[ci]), ci: int32(ci)})
		}
		ws.draw.order = order
		slices.SortFunc(order, func(x, y scoredCand) int {
			if r := cmp.Compare(x.key, y.key); r != 0 {
				return r
			}
			return cmp.Compare(x.ci, y.ci)
		})
		for _, sc := range order {
			cand := &cands[sc.ci]
			m := matBuf()
			ba := bufAssign(m)
			s.materialize(m, cand, *ba == cand.assign)
			*ba = cand.assign
			consider(m, try(states, m, true, int64(cand.assign)))
		}
	}

	if states[0].best == nil {
		// Fall back to the trivial all-outer mapping per assignment —
		// on architectures whose capped levels reject every random draw
		// (Albireo unseeded) this is where the incumbent comes from.
		// Materialized into the ping-pong buffers; construction stops
		// once the budget cannot admit another attempt.
		for ai, assign := range s.assignments {
			if evals >= budget {
				break
			}
			m := matBuf()
			outerInto(a, m, l, assign, s.minLv)
			*bufAssign(m) = int32(ai)
			consider(m, try(states, m, true, int64(ai)))
		}
	}
	if states[0].best == nil {
		for i := range states {
			states[i].evals = evals
		}
		return
	}

	// Phase 2: each objective hill-climbs from its own incumbent. The
	// first climb continues the exploration's state; every later one
	// restarts from it: the rng word, the budget count, the dedup set
	// (the previous climb's insertions are undone) and the delta chain
	// (last is restored from a copy — the ping-pong buffers hold another
	// climb's mappings — and the scratch re-resolves in full).
	evals0, rng0, last0 := evals, src.x, last
	if len(states) > 1 && last != nil {
		copyMapping(ws.bufLast, last)
		last0 = ws.bufLast
	}
	// Every climb neighbor copies cur's spatial configuration verbatim
	// (edits touch only temporal factors and permutations, and cur is only
	// ever replaced by a clone of such a neighbor), so a whole climb
	// shares one spatial config. A sentinel key one past the assignment
	// indices lets consecutive climb evaluations skip re-resolving it.
	climbKey := int64(len(s.assignments))
	for j := range states {
		if j > 0 {
			for _, fp := range ws.climbed {
				delete(seen, fp)
			}
			evals, src.x = evals0, rng0
			last, scratchOK, lastSpatialKey = last0, false, -1
		}
		ws.climbed = ws.climbed[:0]
		ob, active := &states[j], states[j:j+1]
		cur := ob.best
		ob.cutoff = cur.Result
		for evals < budget {
			improved := false
			for _, e := range neighborEdits(a, cur.Mapping, rng) {
				nb := matBuf()
				copyMapping(nb, cur.Mapping)
				*bufAssign(nb) = -1
				applyEdit(nb, e)
				r := try(active, nb, true, climbKey)
				if r == nil {
					continue
				}
				if betterEval(ob.obj, r, nb, cur) && retain(ob, nb) {
					cur = &Best{Mapping: nb.Clone(), Result: r.Clone()}
					ob.cutoff = cur.Result
					improved = true
					break
				}
			}
			if !improved {
				break
			}
		}
		if cur != ob.best && betterEval(ob.obj, cur.Result, cur.Mapping, ob.best) {
			ob.best = cur
		}
		ob.evals = evals
	}
}

// maxSpatialAssignments caps the enumerated cross product of rigid
// spatial-factor assignments.
const maxSpatialAssignments = 4096

// enumerateSpatialAssignments expands the cross product of every rigid
// spatial factor's allowed dimensions. Small products are enumerated in
// full, in lexicographic order with the first factor most significant
// (index 0 is the canonical all-first-dimension assignment). Products
// beyond maxSpatialAssignments are sampled uniformly (and
// deterministically, from a fixed seed) over the full cross product, so
// every factor's alternates stay represented regardless of factor order —
// the straight prefix truncation this replaces silently dropped all
// alternates of the leading factors.
func enumerateSpatialAssignments(a *arch.Arch) [][]workload.Dim {
	var factors []arch.SpatialFactor
	for i := 0; i < a.NumLevels(); i++ {
		factors = append(factors, a.Level(i).Spatial...)
	}
	total := int64(1)
	const saturate = int64(1) << 55
	for _, f := range factors {
		total *= int64(len(f.Dims))
		if total > saturate {
			// Sampling below saturation is still deterministic; exact
			// uniformity over an astronomically large product is moot.
			total = saturate
			break
		}
	}
	if total <= maxSpatialAssignments {
		out := make([][]workload.Dim, 0, total)
		for idx := int64(0); idx < total; idx++ {
			out = append(out, decodeAssignment(factors, idx))
		}
		return out
	}
	// Canonical assignment first, then distinct uniform samples.
	rng := rand.New(rand.NewSource(1))
	seen := map[int64]struct{}{0: {}}
	out := make([][]workload.Dim, 0, maxSpatialAssignments)
	out = append(out, decodeAssignment(factors, 0))
	for len(out) < maxSpatialAssignments {
		idx := rng.Int63n(total)
		if _, dup := seen[idx]; dup {
			continue
		}
		seen[idx] = struct{}{}
		out = append(out, decodeAssignment(factors, idx))
	}
	return out
}

// decodeAssignment expands one lexicographic index of the assignment cross
// product (first factor most significant) into per-factor dimensions.
func decodeAssignment(factors []arch.SpatialFactor, idx int64) []workload.Dim {
	assign := make([]workload.Dim, len(factors))
	for j := len(factors) - 1; j >= 0; j-- {
		n := int64(len(factors[j].Dims))
		assign[j] = factors[j].Dims[idx%n]
		idx /= n
	}
	return assign
}

// applyAssignment distributes a flat assignment vector back to levels,
// reusing the mapping's SpatialChoice backing arrays.
func applyAssignment(a *arch.Arch, m *mapping.Mapping, assign []workload.Dim) {
	idx := 0
	for i := 0; i < a.NumLevels(); i++ {
		n := len(a.Level(i).Spatial)
		m.Levels[i].SpatialChoice = append(m.Levels[i].SpatialChoice[:0], assign[idx:idx+n]...)
		idx += n
	}
}

// minLevels returns, per dimension, the outermost level at which loops over
// that dimension may legally appear: the innermost of the outermost-keeper
// levels of the tensors the dimension addresses. (Loops above a tensor's
// outermost keeper would demand data from a level that does not store it —
// this is what pins activations on chip in fusion studies.)
func minLevels(a *arch.Arch) workload.Point {
	var min workload.Point
	for _, t := range workload.AllTensors() {
		keeps := a.KeepLevels(t)
		if len(keeps) == 0 {
			continue
		}
		k0 := keeps[0]
		for _, d := range workload.AllDims() {
			if workload.Relevant(t, d) && k0 > min[d] {
				min[d] = k0
			}
		}
	}
	return min
}

// outerInto builds the trivial all-outer mapping into a reusable buffer: inert
// factors and canonical permutations everywhere, the assignment applied,
// and each dimension's remaining bound at its outermost legal level.
func outerInto(a *arch.Arch, m *mapping.Mapping, l *workload.Layer, assign []workload.Dim, min workload.Point) {
	for i := range m.Levels {
		lm := &m.Levels[i]
		lm.Temporal = workload.Ones()
		lm.FreeSpatial = workload.Ones()
		lm.Perm = append(lm.Perm[:0], mapping.CanonicalPerm()...)
	}
	applyAssignment(a, m, assign)
	rem := assignmentRemaining(a, assign, l)
	for _, d := range workload.AllDims() {
		m.Levels[min[d]].Temporal[d] = rem[d]
	}
}

// neighborEdit is one local move around a mapping: a factor of 2..3 of one
// dimension shifted between adjacent levels, or one level's permutation
// replaced. Edits are generated instead of cloned mappings so the hill
// climb can materialize each neighbor into a pooled buffer on demand —
// the legacy generator cloned every neighbor up front (~150 mappings per
// climb round, most rejected within nanoseconds).
type neighborEdit struct {
	from, to int8 // factor move: from -> to; -1,-1 for a permutation edit
	dim      workload.Dim
	factor   int8
	perm     int8 // permutation edit: index into permCandidates
	level    int8 // permutation edit: level whose Perm is replaced
}

// neighborEdits lists the local moves around m in the legacy generation
// order and applies the same rng shuffle — shuffling an edit list draws
// exactly what shuffling the cloned-mapping list drew, so the climb visits
// neighbors in the identical order.
func neighborEdits(a *arch.Arch, m *mapping.Mapping, rng *rand.Rand) []neighborEdit {
	var out []neighborEdit
	n := a.NumLevels()
	// Move a factor of 2..3 of one dim between adjacent levels.
	for i := 0; i < n-1; i++ {
		for _, d := range workload.AllDims() {
			if m.Levels[i].Temporal[d] > 1 {
				for _, f := range []int8{2, 3} {
					if m.Levels[i].Temporal[d]%int(f) == 0 {
						out = append(out, neighborEdit{from: int8(i), to: int8(i + 1), dim: d, factor: f})
					}
				}
			}
			if m.Levels[i+1].Temporal[d] > 1 {
				for _, f := range []int8{2, 3} {
					if m.Levels[i+1].Temporal[d]%int(f) == 0 {
						out = append(out, neighborEdit{from: int8(i + 1), to: int8(i), dim: d, factor: f})
					}
				}
			}
		}
	}
	// Swap permutations.
	for i := 0; i < n; i++ {
		for p := range permCandidates {
			out = append(out, neighborEdit{from: -1, to: -1, level: int8(i), perm: int8(p)})
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// copyMapping copies src into dst reusing dst's backing arrays (both built
// by mapping.New for the same architecture).
func copyMapping(dst, src *mapping.Mapping) {
	for i := range src.Levels {
		d, s := &dst.Levels[i], &src.Levels[i]
		d.Temporal = s.Temporal
		d.FreeSpatial = s.FreeSpatial
		d.Perm = append(d.Perm[:0], s.Perm...)
		d.SpatialChoice = append(d.SpatialChoice[:0], s.SpatialChoice...)
	}
}

// applyEdit applies a neighbor edit in place.
func applyEdit(m *mapping.Mapping, e neighborEdit) {
	if e.from >= 0 {
		m.Levels[e.from].Temporal[e.dim] /= int(e.factor)
		m.Levels[e.to].Temporal[e.dim] *= int(e.factor)
		return
	}
	m.Levels[e.level].Perm = append(m.Levels[e.level].Perm[:0], permCandidates[e.perm]...)
}

// SearchNetwork maps every layer of a network and returns per-layer bests
// in layer order, sharing one (cached) Session across the layers. Layers
// are searched concurrently.
func SearchNetwork(a *arch.Arch, net *workload.Network, opts Options) ([]*Best, error) {
	s, err := sessionFor(a)
	if err != nil {
		return nil, err
	}
	return s.SearchNetwork(net, opts)
}

// SearchNetwork maps every layer of a network on the session's
// architecture; distinct layer shapes are searched concurrently.
//
// Layers with equal shape fingerprints search identically (a search
// depends only on the layer's shape and the options), so one
// representative per distinct shape is searched and its result cloned for
// the duplicates — bit-identical to searching every layer, and a large
// saving on networks built from repeated blocks (ResNet's basic blocks,
// VGG's paired convolutions). This is the incumbent threading the sweep
// performs across points, applied within a network where it is exact.
func (s *Session) SearchNetwork(net *workload.Network, opts Options) ([]*Best, error) {
	if err := net.Validate(); err != nil {
		return nil, err
	}
	bests := make([]*Best, len(net.Layers))
	errs := make([]error, len(net.Layers))
	rep := make([]int, len(net.Layers)) // representative index per layer
	firstByShape := make(map[uint64]int, len(net.Layers))
	var reps []int
	for i := range net.Layers {
		fp := net.Layers[i].ShapeFingerprint()
		if j, ok := firstByShape[fp]; ok {
			rep[i] = j
		} else {
			firstByShape[fp] = i
			rep[i] = i
			reps = append(reps, i)
		}
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, maxParallel())
	for _, i := range reps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			bests[i], errs[i] = s.Search(&net.Layers[i], opts)
		}(i)
	}
	wg.Wait()
	for _, i := range reps {
		if errs[i] != nil {
			return nil, fmt.Errorf("mapper: layer %s: %w", net.Layers[i].Name, errs[i])
		}
	}
	for i := range net.Layers {
		if rep[i] != i {
			bests[i] = bests[rep[i]].CloneFor(net.Layers[i].Name)
		}
	}
	return bests, nil
}

func maxParallel() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		return 1
	}
	return n
}

// Exhaustive enumerates every combination of spatial assignment, divisor
// split and candidate permutation for small problems, guaranteeing the
// optimum within that (restricted-permutation) space. It errors if the
// space exceeds maxEvals.
func Exhaustive(a *arch.Arch, l *workload.Layer, obj Objective, maxEvals int) (*Best, error) {
	s, err := NewSession(a)
	if err != nil {
		return nil, err
	}
	return s.Exhaustive(l, obj, maxEvals)
}

// Exhaustive runs the exhaustive search on the session's architecture.
func (s *Session) Exhaustive(l *workload.Layer, obj Objective, maxEvals int) (*Best, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	if maxEvals <= 0 {
		maxEvals = 200000
	}
	a := s.a
	n := a.NumLevels()
	c, err := s.eng.Compile(l)
	if err != nil {
		return nil, err
	}

	// Estimate the space.
	est := float64(len(s.assignments)) * math.Pow(float64(len(permCandidates)), float64(n))
	for _, d := range workload.AllDims() {
		splits := len(mapping.FactorSplits(l.Bound(d), n))
		if splits > 0 {
			est *= float64(splits)
		}
		if est > float64(maxEvals)*100 {
			return nil, fmt.Errorf("mapper: exhaustive space too large (~%g)", est)
		}
	}

	w := &exhaustiveWalk{
		a: a, l: l, c: c, obj: obj, maxEvals: maxEvals,
		scratch: s.eng.NewScratch(),
		res:     &model.Result{},
	}
	for _, assign := range s.assignments {
		base := mapping.New(a)
		applyAssignment(a, base, assign)
		rem := assignmentRemaining(a, assign, l)
		dimSplits := make([][][]int, workload.NumDims)
		for _, d := range workload.AllDims() {
			dimSplits[d] = mapping.FactorSplits(rem[d], n)
		}
		var walk func(d int, m *mapping.Mapping)
		walk = func(d int, m *mapping.Mapping) {
			if w.evals > maxEvals {
				return
			}
			if d == int(workload.NumDims) {
				w.walkPerms(m, 0)
				return
			}
			for _, split := range dimSplits[d] {
				cm := m.Clone()
				for i := 0; i < n; i++ {
					cm.Levels[i].Temporal[workload.Dim(d)] = split[i]
				}
				walk(d+1, cm)
			}
		}
		walk(0, base)
	}
	if w.best == nil {
		return nil, errors.New("mapper: exhaustive search found no valid mapping")
	}
	w.best.Evaluations = w.evals

	// Re-evaluate the winner with the full ledger.
	full, err := c.Evaluate(w.best.Mapping, model.Options{SkipValidate: true, FullLedger: true})
	if err != nil {
		return nil, err
	}
	w.best.Result = full
	return w.best, nil
}

// exhaustiveWalk carries the shared state of one exhaustive enumeration.
type exhaustiveWalk struct {
	a        *arch.Arch
	l        *workload.Layer
	c        *model.Compiled
	obj      Objective
	maxEvals int
	scratch  *model.Scratch
	res      *model.Result
	best     *Best
	evals    int
}

func (w *exhaustiveWalk) walkPerms(m *mapping.Mapping, level int) {
	if w.evals > w.maxEvals {
		return
	}
	if level == w.a.NumLevels() {
		w.evals++
		if err := m.Validate(w.a, w.l); err != nil {
			return
		}
		if err := w.c.EvaluateInto(w.scratch, m, w.res, model.Options{SkipValidate: true}); err != nil {
			return
		}
		if w.best == nil || betterEval(w.obj, w.res, m, w.best) {
			w.best = &Best{Mapping: m.Clone(), Result: w.res.Clone()}
		}
		return
	}
	// Only permute levels that actually have multiple loops.
	active := 0
	for _, d := range workload.AllDims() {
		if m.Levels[level].Temporal[d] > 1 {
			active++
		}
	}
	if active <= 1 {
		w.walkPerms(m, level+1)
		return
	}
	for _, cand := range permCandidates {
		m.Levels[level].Perm = append([]workload.Dim(nil), cand...)
		w.walkPerms(m, level+1)
	}
}

// SortBests orders a slice of bests deterministically by layer name (used
// by reporting code).
func SortBests(bests []*Best) {
	sort.SliceStable(bests, func(i, j int) bool {
		return bests[i].Result.Layer < bests[j].Result.Layer
	})
}
