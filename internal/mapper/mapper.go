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
// seeds, split into independent lanes with a deterministic merge.
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
	// split across the lanes (Workers) with the remainder distributed
	// one-per-lane, so the configured budget is spendable exactly; a
	// converging hill climb may stop early, so Evaluations <= Budget.
	Budget int
	// Seed makes the search deterministic (default 1).
	Seed int64
	// Workers is the search's lane count: semantic, default DefaultLanes;
	// the lanes run on min(lanes, GOMAXPROCS) goroutines.
	//
	// Determinism contract: results are exactly reproducible for a fixed
	// (Seed, Workers) pair on any machine — pinned by tests. Different
	// lane counts return different (individually deterministic) results,
	// and that is inherent to the design: each lane draws from its own
	// seeded rng stream and owns a slice of the budget, so the sampled
	// candidate set itself depends on the split. How many goroutines run
	// the lanes never changes a result.
	Workers int
	// Seeds are mappings evaluated before random exploration (e.g. an
	// architecture's canonical schedules); the hill climber starts from
	// the best of seeds and random samples. Build them with SeedList or
	// LazySeeds; only their fingerprints enter the cache key, and the
	// mappings are built only when the search runs.
	Seeds Seeds
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
		out.Workers = DefaultLanes
	}
	return out
}

// DefaultLanes is the search's lane count when Options.Workers is unset.
// It is a constant, so unpinned results do not depend on the machine;
// docs/PERFORMANCE.md ("Search lanes") records the mapping-quality
// measurements it was chosen by.
const DefaultLanes = 4

// Best is a search outcome.
type Best struct {
	Mapping *mapping.Mapping
	Result  *model.Result
	// Evaluations counts candidate attempts charged against the budget
	// (duplicates, invalid candidates and pruned candidates included —
	// each consumed one draw).
	Evaluations int
	// Stats breaks down how the search spent its candidate stream.
	Stats SearchStats
}

// SearchStats counts how a search's candidate stream was dispatched. The
// identity Pruned + DeltaEvals + FullEvals + Duplicates + invalid/failed
// candidates = Evaluations holds per search.
type SearchStats struct {
	// Pruned counts candidates discarded because the admissible lower
	// bound (model.Compiled.LowerBound) proved they could not beat the
	// incumbent; they were never fully evaluated.
	Pruned int
	// DeltaEvals counts full evaluations that reused shared-prefix state
	// from the previous evaluation (model.Compiled.Stage with a non-zero
	// shared level count).
	DeltaEvals int
	// FullEvals counts evaluations computed from scratch.
	FullEvals int
	// Duplicates counts fingerprint-deduplicated candidates.
	Duplicates int
	// Invalid counts candidates rejected by structural validation.
	Invalid int
	// WarmStartEvals is always 0 for new searches; records written by
	// older warm-start sweeps carry their count. The store codec keeps it
	// so those records decode and re-encode byte for byte.
	WarmStartEvals int
}

func (s *SearchStats) add(o SearchStats) {
	s.Pruned += o.Pruned
	s.DeltaEvals += o.DeltaEvals
	s.FullEvals += o.FullEvals
	s.Duplicates += o.Duplicates
	s.Invalid += o.Invalid
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
// reseeds its per-worker sources to keep (seed, budget) reproducible.
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
// buffer, the candidate ping-pong buffers, the dedup set, the draw arena
// and the rng (reseeded per search). A warm worker draws, pre-filters and
// orders its exploration stream without allocating. bufLast and climbed
// let every hill climb of a multi-objective search restart from the
// exploration's state.
type workerState struct {
	scratch *model.Scratch
	res     *model.Result
	bufs    pingPong
	bufLast *mapping.Mapping
	seen    map[uint64]struct{}
	climbed []uint64
	arena   drawArena
	src     splitmix64
	rng     *rand.Rand
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
	ws := &workerState{
		scratch: s.eng.NewScratch(),
		res:     &model.Result{},
		bufs:    pingPong{buf: [2]*mapping.Mapping{mapping.New(s.a), mapping.New(s.a)}},
		bufLast: mapping.New(s.a),
		seen:    make(map[uint64]struct{}, 512),
	}
	ws.rng = rand.New(&ws.src)
	return ws
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

// maxCachedSessions caps the session memo: a session is about 17 KB (its
// pooled worker states are GC-reclaimable), so the memo stays near 4.4 MB,
// resetting rather than growing past the cap.
const maxCachedSessions = 256

// sessionCache is the process-wide session memo behind SessionFor and
// SessionForInput: one map, lock and bound for both kinds of key.
var (
	sessionCacheMu sync.Mutex
	sessionCache   = map[any]*Session{}
)

// printKey is SessionFor's key: the architecture fingerprint (name,
// structure and component energies: the search Cache's Arch key).
type printKey uint64

// SessionFor returns the process-wide Session for the architecture,
// building it (~100µs) on first use. Package-level Search calls and
// raw-spec sweep variants share one per fingerprint: a Session is safe
// for concurrent searches, and their outcomes depend only on the
// fingerprint.
func SessionFor(a *arch.Arch) (*Session, error) {
	return SessionForInput(printKey(a.Fingerprint()), func() (*arch.Arch, error) { return a, nil })
}

// SessionForInput returns the process-wide Session of the architecture
// build makes, memoized by input: the value that architecture is a pure
// function of, such as the configuration it is built from. input must be
// comparable, and of a type no other caller's inputs share. A hit builds
// and fingerprints nothing, and the session's Arch is the architecture
// build made, so callers may share it (read-only) too. Callers racing on
// one input all get the first session stored. Errors from build or
// NewSession are returned unchanged and not memoized.
func SessionForInput(input any, build func() (*arch.Arch, error)) (*Session, error) {
	sessionCacheMu.Lock()
	s := sessionCache[input]
	sessionCacheMu.Unlock()
	if s != nil {
		return s, nil
	}
	a, err := build()
	if err != nil {
		return nil, err
	}
	if s, err = NewSession(a); err != nil {
		return nil, err
	}
	sessionCacheMu.Lock()
	defer sessionCacheMu.Unlock()
	if old := sessionCache[input]; old != nil {
		return old, nil
	}
	if len(sessionCache) >= maxCachedSessions {
		sessionCache = make(map[any]*Session, maxCachedSessions)
	}
	sessionCache[input] = s
	return s, nil
}

// Arch returns the architecture the session searches. Sessions are
// shared, so it is read-only.
func (s *Session) Arch() *arch.Arch { return s.a }

// Engine returns the session's compiled evaluation engine.
func (s *Session) Engine() *model.Engine { return s.eng }

// Fingerprint returns the session architecture's fingerprint, the Arch
// half of every cache Key the session searches under.
func (s *Session) Fingerprint() uint64 { return s.fp }

// Search finds the best mapping for the layer under the options. It is a
// convenience wrapper reusing the process-wide session memo (SessionFor);
// prefer NewSession + Session.Search when mapping several layers on the
// same architecture.
func Search(a *arch.Arch, l *workload.Layer, opts Options) (*Best, error) {
	s, err := SessionFor(a)
	if err != nil {
		return nil, err
	}
	return s.Search(l, opts)
}

// Search finds the best mapping for the layer under the options: the
// one-objective SearchObjectives. The caller owns the returned Best: with
// a Cache it is a copy of the cached one, labeled with l's name.
func (s *Session) Search(l *workload.Layer, opts Options) (*Best, error) {
	bests, err := s.SearchObjectives(l, opts, []Objective{opts.Objective})
	if err != nil {
		return nil, err
	}
	if opts.Cache != nil {
		return bests[0].CloneFor(l.Name), nil
	}
	return bests[0], nil
}

// SearchObjectives finds the best mapping for the layer under the options
// once per objective in objs (opts.Objective is ignored): bests[i] is
// bit-identical to Search with Objective objs[i], Stats included. The
// objectives share one exploration (seeds and random draws
// are staged once), then each hill-climbs from its own incumbent. With a
// Cache, each objective is its own key, as in a separate search, and the
// bests are the cache's, shared read-only (Result.Layer names the layer
// that first computed the key).
func (s *Session) SearchObjectives(l *workload.Layer, opts Options, objs []Objective) ([]*Best, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	if len(objs) == 0 {
		return nil, errors.New("mapper: no objectives")
	}
	o := opts.withDefaults()
	if o.Cache != nil {
		return o.Cache.search(s, l, o, objs)
	}
	return s.search(l, o, objs)
}

// splitBudget distributes budget over workers without dropping the
// remainder: the first budget%workers workers get one extra evaluation, so
// the sum is exactly budget; a budget below the worker count runs budget
// single-evaluation workers instead of overspending.
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

	// Lane w's objective states are states[w*len(objs):][:len(objs)]. The
	// lanes run on min(lanes, GOMAXPROCS) goroutines, each with one
	// worker state running its lanes one after another: searchWorker
	// resets the state on every call and a lane writes only its own
	// states, so which goroutine runs a lane never changes a result.
	lanes := o.Workers
	states := make([]objState, lanes*len(objs))
	for i := range states {
		states[i].obj = objs[i%len(objs)]
	}
	budgets := splitBudget(o.Budget, lanes)
	wss := make([]*workerState, min(lanes, runtime.GOMAXPROCS(0)))
	var wg sync.WaitGroup
	for g := range wss {
		// Worker states leave and rejoin the pool on this goroutine, so a
		// serial caller's next search finds them in the same
		// processor-local pool slots instead of building new ones.
		wss[g] = s.takeWorker()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for w := g; w < lanes; w += len(wss) {
				seed := uint64(o.Seed + int64(w)*7919)
				s.searchWorker(wss[g], c, l, seed, budgets[w], seeds, states[w*len(objs):][:len(objs)])
			}
		}()
	}
	wg.Wait()
	defer func() {
		for _, ws := range wss {
			s.workers.Put(ws)
		}
	}()

	// The lanes score candidates without the itemized energy ledger;
	// re-evaluate each winner once in full, on a worker's scratch, so
	// callers can inspect it.
	bests := make([]*Best, len(objs))
	for j, obj := range objs {
		var best *Best
		evals := 0
		var stats SearchStats
		for w := range lanes {
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
		best.Evaluations = evals
		best.Stats = stats
		full := &model.Result{}
		if err := c.EvaluateInto(wss[0].scratch, best.Mapping, full, model.Options{SkipValidate: true, FullLedger: true}); err != nil {
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
// exploration stream can be drawn up front (with the reference sampler's
// rng sequence exactly) and then scored in an order that maximizes shared
// evaluation state.
type candidate struct {
	assign   int32
	perm     []uint8          // per level, index into permCandidates
	temporal []workload.Point // per level
}

// drawCandidates draws the exploration stream — the same rng calls in the
// same order as one call of the reference sampler (randomMapping) per loop
// iteration — into k compact candidates, so the set is identical to what
// an interleaved draw-and-score loop would produce; only the scoring order
// changes, which cannot change the argmin (the incumbent comparison is a
// strict total order over distinct schedules).
//
// The draw is cap-aware: levels whose MaxTemporalProduct forbids any
// temporal loop are skipped in both the factor chains and the permutation
// draws. On photonic hierarchies (Albireo's analog accumulator, partial-sum
// and ring-bank levels) a blind draw lands a temporal factor on a capped
// level in essentially every candidate, so the whole random budget would
// die in validation; skipping them spends that budget on schedules that
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
// (key, draw index) is a deterministic total order, compared as one word —
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
// mapping the reference randomMapping returns for the same draws. spatialOK
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
// configured identically — the delta Stage may reuse.
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

// scoreOpts are the model options every candidate is scored with: the
// funnel validates on its own (the level caps up front, the rest in
// retain), and the winner alone is re-evaluated with the full ledger.
var scoreOpts = model.Options{SkipValidate: true}

// funnel is one search worker's state for one search, on top of its
// pooled workerState: a method per stage every candidate goes through
// (draw, stage, finish, retain) and the hill climb built on them.
type funnel struct {
	*workerState
	s      *Session
	c      *model.Compiled
	l      *workload.Layer
	states []objState
	evals  int // budget charged so far
	budget int
	chain  deltaChain
	// start is the exploration's end state (see snapshot).
	start struct {
		evals int
		rng   uint64
		last  *mapping.Mapping
	}
}

// deltaChain is the delta baseline of the next Stage. last is the last
// staged mapping, the baseline of every objective whose chain holds (nil
// after a failed Stage); scratchOK says the scratch's own baseline is last,
// which a failed FinishStaged revokes. last must stay untouched until the
// next evaluation, hence the ping-pong buffers.
//
// spatialKey identifies last's spatial configuration: the assignment index
// for mappings built from one (all-outer mappings, random draws), the
// climb's sentinel for hill-climb neighbors, -1 for mappings of unknown
// provenance (seeds). Two mappings built from the same
// assignment have bit-identical spatial configurations (FreeSpatial is
// Ones, choices copy the assignment), so a key match lets Stage skip the
// spatial-factor, spatial-memo and instance resolution outright.
type deltaChain struct {
	last       *mapping.Mapping
	scratchOK  bool
	spatialKey int64
}

// reset keeps last for levelsShared but makes the next Stage re-resolve
// the scratch in full, so a candidate that errored is never a baseline.
func (d *deltaChain) reset(last *mapping.Mapping) { *d = deltaChain{last: last, spatialKey: -1} }

// pingPong is the pair of buffers candidates are materialized into. assign
// records which assignment's spatial configuration each buffer holds (-1:
// unknown), letting materialize skip the rewrite.
type pingPong struct {
	buf    [2]*mapping.Mapping
	assign [2]int32
}

// next returns the buffer that is not last, with its assignment tag.
func (p *pingPong) next(last *mapping.Mapping) (*mapping.Mapping, *int32) {
	if last == p.buf[0] {
		return p.buf[1], &p.assign[1]
	}
	return p.buf[0], &p.assign[0]
}

func (p *pingPong) reset() { p.assign = [2]int32{-1, -1} }

// searchWorker runs one lane's slice of the search for every objective
// in states: seeds and the (reordered) random exploration
// once for all of them, then one hill climb per objective. Each
// objective's outcome is bit-identical to a naive single-objective worker
// that validates and fully evaluates every candidate in draw order for the
// same (seed, budget) — the lower-bound gate only discards candidates that
// provably cannot win, and delta evaluation reproduces full evaluations
// exactly (both properties are pinned against such a reference search by
// equivalence tests). Sharing the exploration is exact: only pruning and
// retention depend on the objective, and until the first retention
// nothing prunes, so whether an incumbent exists is shared too.
func (s *Session) searchWorker(ws *workerState, c *model.Compiled, l *workload.Layer, seed uint64, budget int, seeds []*mapping.Mapping, states []objState) {
	if budget <= 0 {
		return
	}
	defer clear(ws.seen)
	ws.src.x = seed
	ws.bufs.reset()
	f := funnel{workerState: ws, s: s, c: c, l: l, states: states, budget: budget,
		chain: deltaChain{spatialKey: -1}}

	// Seeds are offered in place: nothing mutates a candidate, and retain
	// clones.
	for _, m := range seeds {
		f.offer(states, m, -1)
	}
	// Without an incumbent, the all-outer mappings of the first few
	// assignments arm the bound gate for the first random draw (a tenth of
	// the budget at most: they are deliberately mediocre).
	f.outer(s.assignments[:min(budget/10, len(s.assignments))])
	if k := budget*7/10 - f.evals; k > 0 {
		cands, order := f.draw(k)
		for _, sc := range order {
			cand := &cands[sc.ci]
			m, tag := f.bufs.next(f.chain.last)
			s.materialize(m, cand, *tag == cand.assign)
			*tag = cand.assign
			f.offer(states, m, int64(cand.assign))
		}
	}
	// Still without one, every assignment's all-outer mapping is offered:
	// on architectures whose capped levels reject every random draw
	// (Albireo unseeded), this is where the incumbent comes from.
	f.outer(s.assignments)
	f.snapshot()
	for j := range states {
		if j > 0 {
			f.restore()
		}
		f.climb(states[j : j+1])
	}
}

// tally applies one stats verdict to every active objective.
func tally(active []objState, count func(*objState)) {
	for i := range active {
		count(&active[i])
	}
}

// offer runs m through stage, finish and retain for the active objectives
// and reports whether an incumbent changed.
func (f *funnel) offer(active []objState, m *mapping.Mapping, spatialKey int64) bool {
	return f.stage(active, m, spatialKey) && f.finish(active) && f.retain(active, m)
}

// outer, when no objective has an incumbent yet, offers the trivial
// all-outer mapping of each assignment in turn (index 0, the canonical
// one, first) while the budget admits attempts.
func (f *funnel) outer(assignments [][]workload.Dim) {
	if f.states[0].best != nil {
		return
	}
	for ai, assign := range assignments {
		if f.evals >= f.budget {
			return
		}
		m, tag := f.bufs.next(f.chain.last)
		outerInto(f.s.a, m, f.l, assign, f.s.minLv)
		*tag = int32(ai)
		f.offer(f.states, m, int64(ai))
	}
}

// draw draws the k-candidate random exploration stream and returns it with
// its scoring order. The canonical assignment (every factor on its
// first-listed dimension) is the architect's intended use and gets half the
// draws; the rest explore alternates (how FC layers find channel-parallel
// slots).
//
// A cheap structural pre-reject on the compact form mirrors Validate's
// MaxTemporalProduct rule exactly: a draw that puts temporal loops on a
// capped level (an analog accumulator, a ring bank) can never validate, so
// it is charged and dropped before fingerprinting and materialization.
// The survivors are scored in (key, draw index) order so consecutive
// candidates share evaluation state; the candidate set — and hence the
// outcome — is that of an interleaved draw-and-score loop.
func (f *funnel) draw(k int) ([]candidate, []scoredCand) {
	cands := f.s.drawCandidates(&f.arena, f.l, f.rng, k, f.s.a.NumLevels())
	order := f.arena.order[:0]
prefilter:
	for ci := range cands {
		for _, cl := range f.s.capped {
			if cands[ci].temporal[cl.level].Product() > cl.tp {
				f.evals++
				tally(f.states, func(ob *objState) { ob.st.Invalid++ })
				continue prefilter
			}
		}
		order = append(order, scoredCand{key: candidateKey(&cands[ci]), ci: int32(ci)})
	}
	f.arena.order = order
	slices.SortFunc(order, func(x, y scoredCand) int {
		if r := cmp.Compare(x.key, y.key); r != 0 {
			return r
		}
		return cmp.Compare(x.ci, y.ci)
	})
	return cands, order
}

// stage charges m against the budget, pre-checks the level caps, dedups
// it, stages it (model.Compiled.Stage) and gates it on each active
// objective's admissible bound. It reports whether some objective needs
// the finishing passes. A schedule already fingerprinted
// stops here: it was scored, pruned, or failed deterministically, and can
// never beat the incumbent, so skipping it is behavior preserving.
//
// One shared-prefix core resolution serves the bound and — only for
// candidates some objective's bound cannot discard — the finishing passes.
// Pruned candidates therefore cost a core resolution instead of a bound
// plus a full evaluation's worth of resolution, and they still advance the
// delta chain. Pruning needs no validity and full validation is deferred
// to retain, so an invalid candidate lands in Pruned or the eval
// buckets unless it is retained; neither kind can become the incumbent —
// Best is unaffected, only the stats split differs from validating up
// front. Deferral also means an invalid schedule's fingerprint enters seen
// (up-front validation would leave it out); a later distinct schedule is
// shadowed only by a 64-bit fingerprint collision, which the dedup already
// accepts for valid schedules.
func (f *funnel) stage(active []objState, m *mapping.Mapping, spatialKey int64) bool {
	tally(active, func(ob *objState) { ob.scored = false })
	if f.evals >= f.budget {
		return false
	}
	f.evals++
	// Fast subset of Valid: hill-climb moves produce capped-level
	// violations constantly. Rejecting before fingerprinting is behavior
	// preserving — invalid candidates are never recorded either way.
	for _, cl := range f.s.capped {
		if m.Levels[cl.level].Temporal.Product() > cl.tp {
			tally(active, func(ob *objState) { ob.st.Invalid++ })
			return false
		}
	}
	fp := m.Fingerprint()
	if _, dup := f.seen[fp]; dup {
		tally(active, func(ob *objState) { ob.st.Duplicates++ })
		return false
	}
	shared, stageShared, sfShared := levelsShared(f.chain.last, m), 0, 0
	if f.chain.scratchOK {
		stageShared = shared
	}
	if spatialKey >= 0 && spatialKey == f.chain.spatialKey {
		sfShared = len(m.Levels)
	}
	// The staged bound is a byproduct of the core resolution, so checking
	// it is free and it always prunes when it can. When the one objective
	// is pure energy, the incumbent's score doubles as Stage's early-exit
	// threshold: the bound stops accumulating once the partial sum alone
	// proves the prune. The returned (partial) bound then exceeds the
	// cutoff exactly when the full bound would, so the decision below is
	// unchanged. Other objectives, and several at once, need the full
	// bound (their scores mix in cycles).
	limitPJ := math.Inf(1)
	if len(active) == 1 && active[0].obj == MinEnergy && active[0].cutoff != nil {
		limitPJ = active[0].cutoff.TotalPJ
	}
	bound, err := f.c.Stage(f.scratch, m, scoreOpts, stageShared, sfShared, limitPJ)
	if err != nil {
		f.chain.reset(nil)
		return false
	}
	f.chain = deltaChain{last: m, scratchOK: true, spatialKey: spatialKey}
	// Admissible pruning: skip the finishing passes only when every
	// objective's bound proves the candidate cannot strictly beat its
	// incumbent. The check must be a strict inequality — a candidate whose
	// true score ties the incumbent can still win the deterministic
	// tie-break.
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
	f.seen[fp] = struct{}{}
	f.climbed = append(f.climbed, fp)
	return finish
}

// finish runs the finishing passes on the staged candidate into f.res and
// classifies each scored objective's evaluation as delta or full. A
// failure unscores those objectives and breaks their delta chains.
func (f *funnel) finish(active []objState) bool {
	if err := f.c.FinishStaged(f.scratch, f.res, scoreOpts); err != nil {
		f.chain.reset(f.chain.last)
		tally(active, func(ob *objState) { ob.scored, ob.chain = false, ob.chain && !ob.scored })
		return false
	}
	tally(active, func(ob *objState) {
		switch {
		case !ob.scored:
		case ob.delta:
			ob.st.DeltaEvals++
		default:
			ob.st.FullEvals++
		}
	})
	return true
}

// retain makes the finished m the incumbent of each scored objective it
// beats, once it passes the full validation stage deferred. Valid rejects
// almost nothing (~2 of 360 candidates in BenchmarkMapperSearchSeeded's
// search) yet walking every candidate through it cost ~11% of search: a
// candidate never retained never pays for it, and one retained by several
// objectives pays once. A rejection moves the objective's charged
// evaluation of m from the bucket its delta flag names to Invalid — it was
// scored, but it may not win — keeping the identity Pruned + DeltaEvals +
// FullEvals + Duplicates + Invalid == charged attempts.
func (f *funnel) retain(active []objState, m *mapping.Mapping) bool {
	improved := false
	valid := 0 // 1 or -1 once m.Valid ran
	for i := range active {
		ob := &active[i]
		if !ob.scored || (ob.best != nil && !betterEval(ob.obj, f.res, m, ob.best)) {
			continue
		}
		if valid == 0 {
			valid = 1
			if !m.Valid(f.s.a, f.l) {
				valid = -1
			}
		}
		if valid < 0 {
			if ob.delta {
				ob.st.DeltaEvals--
			} else {
				ob.st.FullEvals--
			}
			ob.st.Invalid++
			continue
		}
		ob.best = &Best{Mapping: m.Clone(), Result: f.res.Clone()}
		ob.cutoff, improved = ob.best.Result, true
	}
	return improved
}

// climb hill-climbs the one objective in active from its incumbent: each
// round offers its neighbors in shuffled order and moves to the first one
// retained, until a round retains none or the budget runs out.
func (f *funnel) climb(active []objState) {
	ob := &active[0]
	// Every neighbor copies the incumbent's spatial configuration verbatim
	// (edits touch only temporal factors and permutations), so a whole
	// climb shares one spatial config. A sentinel key one past the
	// assignment indices lets consecutive neighbors skip re-resolving it.
	climbKey := int64(len(f.s.assignments))
	f.climbed = f.climbed[:0]
	for improved := ob.best != nil; improved && f.evals < f.budget; {
		improved = false
		for _, e := range neighborEdits(f.s.a, ob.best.Mapping, f.rng) {
			nb, tag := f.bufs.next(f.chain.last)
			copyMapping(nb, ob.best.Mapping)
			*tag = -1
			applyEdit(nb, e)
			if f.offer(active, nb, climbKey) {
				improved = true
				break
			}
		}
	}
	ob.evals = f.evals
}

// snapshot records the exploration's end state, where every hill climb
// after the first restarts: the budget count, the rng word and the delta
// baseline. last is kept as a copy when a later climb will restore it — by
// then the ping-pong buffers hold another climb's mappings.
func (f *funnel) snapshot() {
	f.start.evals, f.start.rng, f.start.last = f.evals, f.src.x, f.chain.last
	if len(f.states) > 1 && f.chain.last != nil {
		copyMapping(f.bufLast, f.chain.last)
		f.start.last = f.bufLast
	}
}

// restore rewinds the funnel to the snapshot: the previous climb's dedup
// insertions are undone, and the scratch re-resolves in full.
func (f *funnel) restore() {
	for _, fp := range f.climbed {
		delete(f.seen, fp)
	}
	f.evals, f.src.x = f.start.evals, f.start.rng
	f.chain.reset(f.start.last)
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
// every factor's alternates stay represented regardless of factor order (a
// prefix truncation would drop all alternates of the leading factors).
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
// climb can materialize each neighbor into a pooled buffer on demand
// (~150 neighbors per climb round, most rejected within nanoseconds).
type neighborEdit struct {
	from, to int8 // factor move: from -> to; -1,-1 for a permutation edit
	dim      workload.Dim
	factor   int8
	perm     int8 // permutation edit: index into permCandidates
	level    int8 // permutation edit: level whose Perm is replaced
}

// neighborEdits lists the local moves around m in a fixed generation order,
// then shuffles them with rng; the order is part of the candidate stream
// the reference search reproduces.
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
