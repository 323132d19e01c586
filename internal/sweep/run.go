package sweep

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"

	"photoloop/internal/albireo"
	"photoloop/internal/arch"
	"photoloop/internal/fidelity"
	"photoloop/internal/mapper"
	"photoloop/internal/mapping"
	"photoloop/internal/model"
	"photoloop/internal/spec"
	"photoloop/internal/workload"
)

// Options tunes a Run (and any EvalPoints call) without changing what it
// computes.
type Options struct {
	// Workers is the point-level pool size (default GOMAXPROCS divided by
	// the goroutines each layer search runs on). Points are independent,
	// so the pool size never changes results.
	Workers int
	// Context cancels the run between points (in-flight points finish);
	// undispatched points carry the cancellation as their Err and Run
	// returns the context's error. Nil means never canceled. The HTTP
	// server passes the request context so abandoned sweeps stop burning
	// the pool.
	Context context.Context
	// Cache deduplicates identical (architecture, layer shape) searches
	// across points; nil gets a fresh per-run cache. Long-lived callers
	// (the HTTP server) share one cache across runs.
	Cache *mapper.Cache
	// Progress, when set, is called after each point completes with the
	// number done and the total. Calls are serialized.
	Progress func(done, total int)
	// OnPoint, when set, streams each point as it completes (completion
	// order, not index order). Calls are serialized; the final Result
	// still holds every point in index order.
	OnPoint func(*Point)
	// PreEvaluate, when set, sees the point indices of each EvalPoints
	// call after they all decode and before any is evaluated: a Run's
	// whole grid once (only after the grid passed Run's checks), an
	// adaptive exploration one generation at a time. Sharded jobs hook it
	// to lease the indices whose searches the shared cache's store cannot
	// already serve (Evaluator.ColdPoints) to worker processes and wait
	// until those searches reach the store, after which the local
	// evaluation finds everything warm; it runs before evaluation starts,
	// so it cannot change what is computed. An error aborts the call with
	// nothing evaluated.
	PreEvaluate func(idx []int64) error
}

// Result is a completed sweep: every point of the cross product, in
// deterministic index order (variants × workloads × objectives, variant
// most significant).
type Result struct {
	Name   string  `json:"name,omitempty"`
	Points []Point `json:"points"`
	// CacheHits and CacheMisses count layer searches the shared
	// mapper.Cache served versus computed. They count dedupe across points
	// only: a point searches each repeated layer shape once and never
	// sends the repeats to the cache.
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	// Pruned, DeltaEvals and FullEvals roll the per-point search funnel up
	// across the whole sweep: candidates discarded by the admissible lower
	// bound, evaluations that reused shared-prefix state, and evaluations
	// computed from scratch.
	Pruned     int `json:"pruned,omitempty"`
	DeltaEvals int `json:"delta_evals,omitempty"`
	FullEvals  int `json:"full_evals,omitempty"`
}

// PrunedFraction is the sweep-wide fraction of drawn candidates the
// admissible lower bound discarded before a full evaluation (0 when the
// sweep scored nothing, e.g. fixed-mapping evaluations).
func (r *Result) PrunedFraction() float64 {
	scored := r.Pruned + r.DeltaEvals + r.FullEvals
	if scored == 0 {
		return 0
	}
	return float64(r.Pruned) / float64(scored)
}

// Point is one evaluated (variant, workload, objective) combination.
type Point struct {
	// Index is the point's position in cross-product order.
	Index int `json:"index"`
	// Variant is the human-readable axis assignment ("" with no axes).
	Variant string `json:"variant,omitempty"`
	// Params maps each axis param to this point's value.
	Params map[string]any `json:"params,omitempty"`
	// Network, Batch, Fused and Objective identify the evaluation.
	Network   string `json:"network"`
	Batch     int    `json:"batch"`
	Fused     bool   `json:"fused,omitempty"`
	Objective string `json:"objective"`
	// Arch is the variant architecture's name.
	Arch string `json:"arch,omitempty"`
	// AreaUM2 and PeakMACsPerCycle are mapping-independent variant
	// properties.
	AreaUM2          float64 `json:"area_um2,omitempty"`
	PeakMACsPerCycle int64   `json:"peak_macs_per_cycle,omitempty"`
	// Whole-network metrics (sums and derived rates across layers).
	MACs         int64   `json:"macs,omitempty"`
	Cycles       float64 `json:"cycles,omitempty"`
	TotalPJ      float64 `json:"total_pj,omitempty"`
	PJPerMAC     float64 `json:"pj_per_mac,omitempty"`
	MACsPerCycle float64 `json:"macs_per_cycle,omitempty"`
	Utilization  float64 `json:"utilization,omitempty"`
	// EffectiveBits, SNRDB and AccuracyLossPct carry the MAC-weighted
	// analog fidelity rollup of the point's best mappings (Spec.Fidelity);
	// all zero when fidelity modeling is off.
	EffectiveBits   float64 `json:"effective_bits,omitempty"`
	SNRDB           float64 `json:"snr_db,omitempty"`
	AccuracyLossPct float64 `json:"accuracy_loss_pct,omitempty"`
	// Evaluations sums the mapper's model evaluations across layers.
	Evaluations int `json:"evaluations,omitempty"`
	// Pruned, DeltaEvals and FullEvals sum the mapper's search statistics
	// across layers: candidates discarded by the admissible lower bound
	// without a full evaluation, full evaluations that reused
	// shared-prefix state, and evaluations computed from scratch.
	Pruned     int `json:"pruned,omitempty"`
	DeltaEvals int `json:"delta_evals,omitempty"`
	FullEvals  int `json:"full_evals,omitempty"`
	// Err records a failed point (the Run error names the first).
	Err string `json:"error,omitempty"`

	// Results holds each layer's best-mapping evaluation, full energy
	// ledger included, in network order — for programmatic consumers (the
	// figure harnesses). They are shared with the search cache and with
	// same-shaped layers, so read-only (a result's own Layer field may
	// name another such layer). Omitted from JSON.
	Results []*model.Result `json:"-"`
	// Layers holds per-layer outcomes when Spec.IncludeLayers is set.
	Layers []LayerOutcome `json:"layers,omitempty"`
}

// LayerOutcome is one layer's best-mapping evaluation within a point.
type LayerOutcome struct {
	Layer        string  `json:"layer"`
	MACs         int64   `json:"macs"`
	TotalPJ      float64 `json:"total_pj"`
	PJPerMAC     float64 `json:"pj_per_mac"`
	Cycles       float64 `json:"cycles"`
	MACsPerCycle float64 `json:"macs_per_cycle"`
	Utilization  float64 `json:"utilization"`
	Evaluations  int     `json:"evaluations"`
	// EffectiveBits, SNRDB and AccuracyLossPct carry the layer's analog
	// fidelity rollup when the spec enables it.
	EffectiveBits   float64 `json:"effective_bits,omitempty"`
	SNRDB           float64 `json:"snr_db,omitempty"`
	AccuracyLossPct float64 `json:"accuracy_loss_pct,omitempty"`
	// Pruned, DeltaEvals and FullEvals break down how the search spent
	// its candidates (see mapper.SearchStats); all zero for fixed-mapping
	// evaluations.
	Pruned     int `json:"pruned,omitempty"`
	DeltaEvals int `json:"delta_evals,omitempty"`
	FullEvals  int `json:"full_evals,omitempty"`
}

// pointJob pairs a pending point with the state needed to evaluate it.
type pointJob struct {
	index    int
	variant  *variant
	workload *Workload
	network  workload.Network
	netName  string
	objName  string
	obj      mapper.Objective
	// mapping, when set, is a fixed schedule scored on every layer
	// instead of searching (eval requests only).
	mapping *spec.MappingSpec
}

// Run evaluates the sweep. It first checks the whole grid — the variant
// cap, then every variant's axis values in index order — and then
// evaluates points [0, N) through Evaluator.EvalPoints. The returned
// Result always holds one point per cross-product combination in index
// order; if any point failed, the first failure is returned as the error
// (its point, and any other failed points, carry Err).
func Run(sp Spec, opts Options) (*Result, error) {
	ev, err := NewEvaluator(sp, opts)
	if err != nil {
		return nil, err
	}
	variants, err := ev.numVariants()
	if err != nil {
		return nil, err
	}
	idx := make([]int64, variants*len(ev.networks)*len(ev.objs))
	for i := range idx {
		idx[i] = int64(i)
	}
	// Snapshot the counters so the result reports THIS run's dedupe, not
	// a shared cache's lifetime totals. (Concurrent runs on one cache
	// still see each other's traffic in the deltas — the numbers are
	// per-run, not per-key-set.)
	hits0, misses0 := ev.CacheStats()
	points, err := ev.EvalPoints(idx, opts)
	if points == nil {
		return nil, err
	}
	res := &Result{Name: sp.Name, Points: points}
	hits1, misses1 := ev.CacheStats()
	res.CacheHits, res.CacheMisses = hits1-hits0, misses1-misses0
	for i := range res.Points {
		res.Pruned += res.Points[i].Pruned
		res.DeltaEvals += res.Points[i].DeltaEvals
		res.FullEvals += res.Points[i].FullEvals
	}
	if err != nil {
		return res, fmt.Errorf("sweep: %w", err)
	}
	for i := range res.Points {
		if res.Points[i].Err != "" {
			return res, fmt.Errorf("sweep: point %d (%s %s %s): %s",
				i, res.Points[i].Variant, res.Points[i].Network, res.Points[i].Objective, res.Points[i].Err)
		}
	}
	return res, nil
}

// canceledPoint fills a point that never ran because the run's context was
// canceled first.
func canceledPoint(job *pointJob, err error) Point {
	return Point{
		Index: job.index, Variant: job.variant.label,
		Params: job.variant.params, Network: job.netName,
		Batch: max(1, job.workload.Batch), Fused: job.workload.Fused,
		Objective: job.objName, Err: err.Error(),
	}
}

// variantState memoizes what every point of one variant shares.
type variantState struct {
	once sync.Once
	a    *arch.Arch
	sess *mapper.Session // searched variants only
	fid  *fidelity.Chain // nil unless Spec.Fidelity is set
	err  error
}

// init builds (once) the variant's architecture and, for searched
// points, takes its mapper session from the process-wide memo. A non-nil
// fspec additionally compiles the variant's analog fidelity chain.
func (st *variantState) init(v *variant, fspec *fidelity.Spec, search bool) {
	st.once.Do(func() {
		st.a, st.err = v.build()
		if st.err == nil && search {
			st.sess, st.err = mapper.SessionFor(st.a)
		}
		if st.err == nil && fspec != nil {
			st.fid, st.err = fidelity.Compile(st.a, fspec)
		}
	})
}

// warmTable carries one point's best mappings, keyed by layer shape
// fingerprint, to the next point of a warm-start chain.
type warmTable map[uint64][]*mapping.Mapping

// evaluate computes a point group into points (points[j] is jobs[j]):
// points of one variant and workload that differ only in objective, or a
// single point. It is the one evaluation path behind EvalPoints (and so
// Run), Evaluator.Eval and Eval, and holds the one per-layer network
// loop, whatever the base kind and fused or not; each layer is searched
// once for all the group's objectives. A failure lands in every point's
// Err and is returned as an error too (a failed layer as "sweep: layer
// <name>: ..."). warm supplies the previous chained point's best
// mappings; when collect is set the point's own bests are returned for
// its successor (warm chains are single points).
func (e *Evaluator) evaluate(jobs []pointJob, points []Point, warm warmTable, collect bool) (warmTable, error) {
	job := &jobs[0]
	for j := range jobs {
		points[j] = Point{
			Index:     jobs[j].index,
			Variant:   job.variant.label,
			Params:    job.variant.params,
			Network:   job.netName,
			Batch:     max(1, job.workload.Batch),
			Fused:     job.workload.Fused,
			Objective: jobs[j].objName,
		}
	}
	fail := func(err error) (warmTable, error) {
		for j := range points {
			points[j].Err = err.Error()
		}
		return nil, err
	}
	failLayer := func(layer string, err error) (warmTable, error) {
		fail(fmt.Errorf("layer %s: %v", layer, err))
		return nil, fmt.Errorf("sweep: layer %s: %w", layer, err)
	}
	st := &job.variant.state
	st.init(job.variant, e.spec.Fidelity, job.mapping == nil)
	if st.err != nil {
		return fail(st.err)
	}
	a := st.a
	area, areaErr := a.Area()
	for j := range points {
		points[j].Arch = a.Name
		points[j].PeakMACsPerCycle = a.PeakMACsPerCycle()
		if areaErr == nil {
			points[j].AreaUM2 = area
		}
	}
	var fixed *mapping.Mapping
	if job.mapping != nil {
		var err error
		if fixed, err = job.mapping.Build(a); err != nil {
			return fail(err)
		}
	}

	var next warmTable
	if collect {
		next = make(warmTable)
	}
	fused := map[albireo.Config]*mapper.Session{}
	objs := make([]mapper.Objective, len(jobs))
	for j := range jobs {
		objs[j] = jobs[j].obj
	}
	// One search per distinct (session, layer shape): an outcome depends
	// only on the layer's shape and the options (warm starts and the
	// canonical seeds are shape properties too), so repeated blocks share
	// the representative's bests — bit-identical to searching again, and
	// cheaper than even a cache hit, which hashes the memoized seed
	// prints. Shared bests are read-only; total names layers from the network.
	type searchKey struct {
		sess  *mapper.Session
		shape uint64
	}
	solved := map[searchKey][]*mapper.Best{}
	// bests[i*len(jobs)+j] is layer i's best for point j.
	bests := make([]*mapper.Best, 0, len(job.network.Layers)*len(jobs))
	for i := range job.network.Layers {
		layer := &job.network.Layers[i]
		sess, err := job.layerSession(i, fused)
		if err != nil {
			return failLayer(layer.Name, err)
		}
		key := searchKey{sess, layer.ShapeFingerprint()}
		start := len(bests)
		switch rep := solved[key]; {
		case rep != nil:
			bests = append(bests, rep...)
		case fixed != nil:
			best := &mapper.Best{Mapping: fixed}
			if best.Result, err = model.Evaluate(a, layer, fixed, model.Options{}); err != nil {
				return failLayer(layer.Name, err)
			}
			bests = append(bests, best)
		default:
			mopts := e.searchOptions(job, sess, layer, key.shape, warm[key.shape])
			row, err := sess.SearchObjectives(layer, mopts, objs)
			if err != nil {
				return failLayer(layer.Name, err)
			}
			bests = append(bests, row...)
		}
		solved[key] = bests[start:]
		if collect && next[key.shape] == nil {
			next[key.shape] = []*mapping.Mapping{bests[start].Mapping}
		}
	}
	for j := range points {
		e.total(&points[j], st.fid, job.network.Layers, bests[j:], len(jobs))
	}
	return next, nil
}

// layerSession returns the mapper session layer i of the point runs on.
// An unfused workload runs every layer on the variant's session (its
// state must be initialized). A fused one runs layer i on its position's
// cfg.Fused(i) arch, of which a network has at most three (first,
// middle, last); fused memoizes their sessions for the point.
func (job *pointJob) layerSession(i int, fused map[albireo.Config]*mapper.Session) (*mapper.Session, error) {
	if !job.workload.Fused {
		return job.variant.state.sess, nil
	}
	cfg := job.variant.albireo.Fused(&job.network, i)
	if s := fused[cfg]; s != nil {
		return s, nil
	}
	fa, err := cfg.Build()
	if err != nil {
		return nil, err
	}
	s, err := mapper.SessionFor(fa)
	if err != nil {
		return nil, err
	}
	fused[cfg] = s
	return s, nil
}

// searchOptions returns the mapper options the point searches layer
// (shape fingerprint shape) with on sess: the spec's budget, seed and
// lanes, the evaluator's cache, the canonical Albireo seeds on an
// Albireo base, and the warm starts a warm-start chain threads in.
func (e *Evaluator) searchOptions(job *pointJob, sess *mapper.Session, layer *workload.Layer, shape uint64, warm []*mapping.Mapping) mapper.Options {
	o := mapper.Options{
		Budget:     e.spec.Budget,
		Seed:       e.spec.Seed,
		Workers:    e.spec.SearchWorkers,
		Cache:      e.cache,
		WarmStarts: warm,
	}
	if job.variant.albireo != nil {
		o.Seeds = canonicalSeeds(sess, layer, shape)
	}
	return o
}

// total fills a point's network metrics from its per-layer bests
// (bests[i*stride] for layers[i]), summing in layer order. Cached mapper
// results are shared across points and layers, so the point holds them
// read-only in Results and the fidelity rollup lands on point-owned
// fields — never on a best's Result.
func (e *Evaluator) total(p *Point, fid *fidelity.Chain, layers []workload.Layer, bests []*mapper.Best, stride int) {
	p.Results = make([]*model.Result, 0, len(layers))
	var paddedMACs int64
	var fidMACs, fidBits, fidSNR, fidLoss float64
	for i := 0; i < len(bests); i += stride {
		best := bests[i]
		res := best.Result
		p.Results = append(p.Results, res)
		p.MACs += res.MACs
		paddedMACs += res.PaddedMACs
		p.Cycles += res.Cycles
		p.TotalPJ += res.TotalPJ
		p.Evaluations += best.Evaluations
		p.Pruned += best.Stats.Pruned
		p.DeltaEvals += best.Stats.DeltaEvals
		p.FullEvals += best.Stats.FullEvals
		var rep fidelity.Report
		if fid != nil {
			rep = fid.Evaluate(best.Mapping)
			w := float64(res.MACs)
			fidMACs += w
			fidBits += rep.EffectiveBits * w
			fidSNR += rep.SNRDB * w
			fidLoss += rep.AccuracyLossPct * w
		}
		if e.spec.IncludeLayers {
			lo := layerOutcome(layers[i/stride].Name, best)
			lo.EffectiveBits = rep.EffectiveBits
			lo.SNRDB = rep.SNRDB
			lo.AccuracyLossPct = rep.AccuracyLossPct
			p.Layers = append(p.Layers, lo)
		}
	}
	if p.MACs != 0 {
		p.PJPerMAC = p.TotalPJ / float64(p.MACs)
	}
	if paddedMACs > 0 {
		p.Utilization = float64(p.MACs) / float64(paddedMACs)
	}
	if p.Cycles > 0 {
		p.MACsPerCycle = float64(p.MACs) / p.Cycles
	}
	if fidMACs > 0 {
		p.EffectiveBits = fidBits / fidMACs
		p.SNRDB = fidSNR / fidMACs
		p.AccuracyLossPct = fidLoss / fidMACs
	}
}

func layerOutcome(layer string, best *mapper.Best) LayerOutcome {
	res := best.Result
	return LayerOutcome{
		Layer:        layer,
		MACs:         res.MACs,
		TotalPJ:      res.TotalPJ,
		PJPerMAC:     res.PJPerMAC(),
		Cycles:       res.Cycles,
		MACsPerCycle: res.MACsPerCycle,
		Utilization:  res.Utilization,
		Evaluations:  best.Evaluations,
		Pruned:       best.Stats.Pruned,
		DeltaEvals:   best.Stats.DeltaEvals,
		FullEvals:    best.Stats.FullEvals,
	}
}

// WriteJSON writes the result as an indented JSON document.
func (r *Result) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// CSVHeader returns the column names WriteCSV emits: fixed identity and
// metric columns, with one column per axis param (sorted) in between.
func (r *Result) CSVHeader() []string {
	cols := []string{"index", "variant"}
	cols = append(cols, r.paramColumns()...)
	return append(cols,
		"network", "batch", "fused", "objective", "arch",
		"area_mm2", "peak_macs_per_cycle", "macs", "cycles",
		"total_pj", "pj_per_mac", "macs_per_cycle", "utilization",
		"effective_bits", "snr_db", "accuracy_loss_pct",
		"evaluations", "error")
}

func (r *Result) paramColumns() []string {
	seen := map[string]bool{}
	var cols []string
	for i := range r.Points {
		for k := range r.Points[i].Params {
			if !seen[k] {
				seen[k] = true
				cols = append(cols, k)
			}
		}
	}
	sort.Strings(cols)
	return cols
}

// fidelityCells formats the three fidelity columns, empty when fidelity
// modeling was off (all-zero metrics never occur on a real rollup — a
// perfect chain still reports its reference SNR).
func fidelityCells(bits, snr, loss float64) []string {
	if bits == 0 && snr == 0 && loss == 0 {
		return []string{"", "", ""}
	}
	return []string{
		fmt.Sprintf("%.4f", bits),
		fmt.Sprintf("%.4f", snr),
		fmt.Sprintf("%.4f", loss),
	}
}

// WriteCSV writes the result as CSV, one row per point.
func (r *Result) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(r.CSVHeader()); err != nil {
		return err
	}
	params := r.paramColumns()
	for i := range r.Points {
		p := &r.Points[i]
		row := []string{strconv.Itoa(p.Index), p.Variant}
		for _, k := range params {
			if v, ok := p.Params[k]; ok {
				row = append(row, fmt.Sprint(v))
			} else {
				row = append(row, "")
			}
		}
		row = append(row,
			p.Network, strconv.Itoa(p.Batch), strconv.FormatBool(p.Fused),
			p.Objective, p.Arch,
			fmt.Sprintf("%.4f", p.AreaUM2/1e6), strconv.FormatInt(p.PeakMACsPerCycle, 10),
			strconv.FormatInt(p.MACs, 10), fmt.Sprintf("%.1f", p.Cycles),
			fmt.Sprintf("%.4f", p.TotalPJ), fmt.Sprintf("%.6f", p.PJPerMAC),
			fmt.Sprintf("%.3f", p.MACsPerCycle), fmt.Sprintf("%.4f", p.Utilization))
		row = append(row, fidelityCells(p.EffectiveBits, p.SNRDB, p.AccuracyLossPct)...)
		row = append(row, strconv.Itoa(p.Evaluations), p.Err)
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
