package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"photoloop/internal/mapper"
	"photoloop/internal/sweep"
)

// studyWarmReps is how many warm studies follow each cold one: enough
// warm samples per run for a p90, for a fraction of the cold study's
// cost.
const studyWarmReps = 4

// studyPrimeBudget is the per-layer search budget of set-up's priming
// study.
const studyPrimeBudget = 100

// studyOp is one measured study-cold operation: a cold study on a fresh
// cache, then studyWarmReps warm studies on the filled cache.
type studyOp struct {
	coldMS float64
	warmMS []float64
	tap    *searchTap
	tiers  mapper.TierStats
	trace  uint64
}

// runStudyCold measures sweep.RunStudy over every preset × the whole zoo
// × energy, delay and edp with fidelity on, each search pinned to one
// worker. Set-up, run five times, builds every preset architecture and
// zoo network (the index that maps search keys back to layers) and
// primes the process: a small-budget study of one network fills the
// mapper's process-wide per-architecture state, so lazy initialization
// shows in setup_s rather than in the first cold study.
func runStudyCold(cfg *config) (*report, error) {
	rep := newReport()
	spec := sweep.StudySpec{
		Objectives: sweep.StudyObjectives(), Fidelity: true,
		SearchWorkers: 1, Seed: cfg.seed,
	}
	prime := spec
	prime.Workloads, prime.Budget = []string{"alexnet"}, studyPrimeBudget
	setupS, ix, err := timeSetup(5, func() (*index, error) {
		ix, err := newIndex()
		if err != nil {
			return nil, err
		}
		_, err = sweep.RunStudy(prime, sweep.Options{Workers: cfg.workers})
		return ix, err
	}, func(*index) {})
	if err != nil {
		return nil, err
	}
	rep.setE2E("setup_s", "s", setupS)

	var rec *Recorder
	if cfg.trace {
		rec = NewRecorder()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var coldU, coldT, warmU []float64
	var traced []*studyOp
	studies := 0
	start := time.Now()
	deadline := start.Add(cfg.seconds)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		// Traced runs alternate untraced and traced operations, so the
		// tracing overhead is a same-run comparison.
		var r *Recorder
		if cfg.trace && i%2 == 1 {
			r = rec
		}
		op, err := runStudyOp(rep, spec, cfg.workers, r)
		if err != nil {
			return nil, err
		}
		studies += 1 + len(op.warmMS)
		if i == 0 {
			c, _ := op.tap.snapshot()
			setCounters(rep, c, 0, 0)
		}
		if r == nil {
			coldU = append(coldU, op.coldMS)
			warmU = append(warmU, op.warmMS...)
		} else {
			coldT = append(coldT, op.coldMS)
			traced = append(traced, op)
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	rep.attempted = studies

	rep.setE2E("cold_ms", "ms", Median(coldU))
	rep.setE2E("warm_ms", "ms", Median(warmU))
	rep.setE2E("warm_p90_ms", "ms", Quantile(warmU, 0.9))
	rep.setE2E("ops_per_s", "1/s", float64(studies)/elapsed.Seconds())
	if !cfg.trace {
		return rep, nil
	}
	if len(traced) == 0 {
		return nil, fmt.Errorf("the window fit no traced study; raise --seconds")
	}
	memDelta(rep, &before, &after)
	rep.setLayer("trace.overhead_pct", "%", overheadPct(coldU, coldT))
	rep.setLayer("sweep.study_ms", "ms", Median(coldT))

	var counts workCounts
	var searches []Span
	var perOp [][]searchRecord
	var hits, misses, self float64
	for _, op := range traced {
		c, recs := op.tap.snapshot()
		counts.add(c)
		perOp = append(perOp, recs)
		var mine []Span
		for _, r := range recs {
			mine = append(mine, r.Span)
		}
		searches = append(searches, mine...)
		for _, s := range rec.Named("sweep.study.cold") {
			if s.Trace == op.trace {
				self += ms(SelfTime(s, mine))
			}
		}
		hits += float64(op.tiers.Hits)
		misses += float64(op.tiers.Misses)
	}
	n := float64(len(traced))
	setSearchLayers(rep, counts, len(traced), searches)
	rep.setLayer("sweep.self_ms", "ms", self/n)
	rep.setLayer("mapper.cache_hits", "count", hits/n)
	rep.setLayer("mapper.cache_misses", "count", misses/n)
	if err := setModelLayers(rep, ix, perOp[0]); err != nil {
		return nil, err
	}
	return rep, writeTrace(cfg, rec, layerTable(ix, perOp))
}

// runStudyOp runs one cold study and its warm repeats, checking that
// every warm study's bytes equal the cold study's. Cache counters are
// zeroed before comparing: they describe the run, not the result.
func runStudyOp(rep *report, spec sweep.StudySpec, workers int, rec *Recorder) (*studyOp, error) {
	op := &studyOp{trace: rec.NewID()}
	s := rec.Start("sweep.study.cold", op.trace, 0)
	op.tap = newSearchTap(nil, rec, op.trace)
	op.tap.parent = s.ID
	cache := mapper.NewCache()
	cache.SetPersister(op.tap)
	opts := sweep.Options{Workers: workers, Cache: cache}

	t0 := time.Now()
	cold, err := sweep.RunStudy(spec, opts)
	op.coldMS = ms(time.Since(t0))
	rec.End(s)
	if err != nil {
		return nil, fmt.Errorf("cold study: %w", err)
	}
	want := studyBytes(cold)
	for i := 0; i < studyWarmReps; i++ {
		s := rec.Start("sweep.study.warm", op.trace, 0)
		t0 := time.Now()
		warm, err := sweep.RunStudy(spec, opts)
		op.warmMS = append(op.warmMS, ms(time.Since(t0)))
		rec.End(s)
		if err != nil {
			return nil, fmt.Errorf("warm study: %w", err)
		}
		if !bytes.Equal(studyBytes(warm), want) {
			rep.fail("warm study %d differs from the cold study", i)
		}
	}
	op.tiers = cache.TierStats()
	return op, nil
}

// studyBytes encodes a study with its run-dependent cache counters zeroed.
func studyBytes(r *sweep.StudyResult) []byte {
	c := *r
	c.CacheHits, c.CacheMisses = 0, 0
	var buf bytes.Buffer
	c.WriteJSON(&buf) // a bytes.Buffer write cannot fail
	return buf.Bytes()
}

// setCounters records the deterministic work counters of one operation.
func setCounters(rep *report, c workCounts, storeLen, uploaded int) {
	rep.counters["mapper.searches"] = int64(c.Searches)
	rep.counters["mapper.evaluations"] = int64(c.Evaluations)
	rep.counters["mapper.pruned"] = int64(c.Pruned)
	rep.counters["store.len"] = int64(storeLen)
	rep.counters["store.uploaded"] = int64(uploaded)
}

// writeTrace writes the run's spans and, when given, the per-network-
// layer table under the output directory, and prints where they went
// plus the table's ten slowest rows.
func writeTrace(cfg *config, rec *Recorder, rows []layerRow) error {
	base := fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed)
	spanPath := filepath.Join(cfg.out, base+".spans.ndjson")
	f, err := os.Create(spanPath)
	if err != nil {
		return err
	}
	if err := rec.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Println("spans", spanPath)
	if rows == nil {
		return nil
	}
	tablePath := filepath.Join(cfg.out, base+".layers.tsv")
	var buf bytes.Buffer
	if err := writeLayerTable(&buf, rows); err != nil {
		return err
	}
	if err := os.WriteFile(tablePath, buf.Bytes(), 0o666); err != nil {
		return err
	}
	fmt.Println("layer-table", tablePath)
	return writeLayerTable(os.Stdout, rows[:min(10, len(rows))])
}
