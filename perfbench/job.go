package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"photoloop/internal/jobs"
	"photoloop/internal/mapper"
	"photoloop/internal/presets"
	"photoloop/internal/shard"
	"photoloop/internal/store"
	"photoloop/internal/sweep"
)

// The sharded job: an Albireo-axes sweep of one network, so no two grid
// points share a search key and every worker's search count is the
// same whichever worker leases which range.
var (
	jobOutputLanes = []int{1, 2, 3, 4}
	jobORLanes     = []int{1, 2, 3, 4, 5, 6, 7, 8}
)

const (
	jobNetwork = "resnet18"
	// jobWarmReps is how many warm jobs follow each cold one.
	jobWarmReps = 2
	// workerPoll is the shard workers' idle wait: at most 0.5% of a cold
	// job, so lease pickup is not quantized by it.
	workerPoll = 5 * time.Millisecond
)

// jobSpec is the job's sweep under a given name, round-tripped through
// JSON exactly as the manager stores it.
func jobSpec(seed int64, name string) (*sweep.Spec, error) {
	anyInts := func(xs []int) []any {
		out := make([]any, len(xs))
		for i, x := range xs {
			out[i] = x
		}
		return out
	}
	sp := sweep.Spec{
		Name: name,
		Base: sweep.Base{Preset: "albireo"},
		Axes: []sweep.Axis{
			{Param: "output_lanes", Values: anyInts(jobOutputLanes)},
			{Param: "or_lanes", Values: anyInts(jobORLanes)},
		},
		Workloads:     []sweep.Workload{{Network: jobNetwork}},
		Objectives:    []string{"energy", "delay"},
		Seed:          seed,
		SearchWorkers: 1,
	}
	buf, err := json.Marshal(sp)
	if err != nil {
		return nil, err
	}
	var out sweep.Spec
	return &out, json.Unmarshal(buf, &out)
}

// jobNames are the cold job's name and each warm job's.
func jobNames() []string {
	names := []string{"cold"}
	for i := 1; i <= jobWarmReps; i++ {
		names = append(names, fmt.Sprintf("warm-%d", i))
	}
	return names
}

// jobRef is the set-up: the unsharded reference artifacts of every job
// the run submits, and the loopback listener the workers talk to.
type jobRef struct {
	specs map[string]*sweep.Spec
	want  map[string][]byte
	lb    *loopback
}

// newJobRef runs the job's sweep unsharded (sweep.Run, fresh cache) and
// encodes the artifact the way the job manager does, once per job name.
func newJobRef(cfg *config) (*jobRef, error) {
	ref := &jobRef{specs: map[string]*sweep.Spec{}, want: map[string][]byte{}}
	cache := mapper.NewCache()
	for _, name := range jobNames() {
		sp, err := jobSpec(cfg.seed, name)
		if err != nil {
			return nil, err
		}
		res, err := sweep.Run(*sp, sweep.Options{Workers: cfg.workers, Cache: cache})
		if err != nil {
			return nil, fmt.Errorf("reference sweep: %w", err)
		}
		res.CacheHits, res.CacheMisses = 0, 0
		var buf bytes.Buffer
		res.WriteJSON(&buf) // a bytes.Buffer write cannot fail
		ref.specs[name], ref.want[name] = sp, buf.Bytes()
	}
	lb, err := listen(http.NotFoundHandler())
	if err != nil {
		return nil, err
	}
	ref.lb = lb
	return ref, nil
}

// workerPool is cfg.workers shared-nothing shard workers in this process,
// each a shard.Work loop over a shard.Client and a store.RemotePersister
// against the loopback listener.
type workerPool struct {
	cancel context.CancelFunc
	wg     sync.WaitGroup
	coords []*coordTap
	taps   []*workerTap
	rps    []*store.RemotePersister
	cls    []*shard.Client
	errs   chan error
}

func startWorkers(cfg *config, url string, rec *Recorder, trace uint64) *workerPool {
	ctx, cancel := context.WithCancel(context.Background())
	p := &workerPool{cancel: cancel, errs: make(chan error, cfg.workers)}
	for i := 0; i < cfg.workers; i++ {
		base := &http.Transport{MaxIdleConnsPerHost: 2}
		var rt http.RoundTripper = base
		if rec != nil {
			rt = &timedTransport{rec: rec, inner: base}
		}
		client := &http.Client{Transport: rt, Timeout: 30 * time.Second}
		rp := store.NewRemotePersister(url, client)
		cl := &shard.Client{Base: url, HTTP: client}
		ct := newCoordTap(cl, rec, trace)
		wt := &workerTap{searchTap: newSearchTap(rp, rec, trace), ws: rp}
		p.coords, p.taps, p.rps, p.cls = append(p.coords, ct), append(p.taps, wt), append(p.rps, rp), append(p.cls, cl)
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			defer base.CloseIdleConnections()
			if err := shard.Work(ctx, ct, wt, shard.WorkerOptions{Poll: workerPoll}); err != nil {
				p.errs <- err
			}
		}()
	}
	return p
}

// stop cancels the workers and waits until every loop has returned.
func (p *workerPool) stop() error {
	p.cancel()
	p.wg.Wait()
	close(p.errs)
	return <-p.errs
}

// poolStats sums the pool's counters.
type poolStats struct {
	counts                               workCounts
	records                              []searchRecord
	leases, idle                         int64
	retries, uploaded, batches, warmHits int
}

func (p *workerPool) stats() poolStats {
	var s poolStats
	for i := range p.taps {
		c, recs := p.taps[i].snapshot()
		s.counts.add(c)
		s.records = append(s.records, recs...)
		s.leases += p.coords[i].leases.Load()
		s.idle += p.coords[i].idle.Load()
		rs := p.rps[i].Stats()
		s.retries += rs.Retries + p.cls[i].Retries()
		s.uploaded += rs.Uploaded
		s.batches += rs.Flushes
		s.warmHits += rs.WarmHits
	}
	return s
}

// jobOp is one measured job-sharded operation: a cold job on a fresh
// store directory, then jobWarmReps warm jobs, each reopening the
// manager over the same directory.
type jobOp struct {
	trace      uint64
	coldMS     float64
	warmMS     []float64
	cold       poolStats
	warm       []poolStats
	coldTiers  mapper.TierStats
	storeLen   int
	segments   int
	start, end time.Duration // the cold job, in recorder time
}

// runJob opens a manager with a remote-only coordinator over dir, serves
// it on the listener, starts the workers and runs one job to completion.
// It returns the job's status and artifact with the manager still open.
func runJob(cfg *config, ref *jobRef, dir, name string, rec *Recorder, trace uint64) (*jobs.Manager, *jobs.Status, []byte, poolStats, error) {
	s := rec.Start("jobs.open", trace, 0)
	m, err := jobs.Open(dir)
	rec.End(s)
	if err != nil {
		return nil, nil, nil, poolStats{}, err
	}
	m.Shard = shard.NewCoordinator()
	m.ShardLocal = false
	m.Workers = cfg.workers
	srv := sweep.NewServer()
	jobs.Attach(srv, m)
	ref.lb.set(srv)
	pool := startWorkers(cfg, ref.lb.url, rec, trace)
	s = rec.Start("jobs.run", trace, 0)
	st, err := m.Submit(jobs.Spec{Sweep: ref.specs[name]})
	if err == nil {
		st, err = m.Run(context.Background(), st.ID)
	}
	rec.End(s)
	// Every range is flushed and completed once Run returns; read the
	// counters before stopping, whose cancellation of an idle poll in
	// flight would count as a retry.
	ps := pool.stats()
	werr := pool.stop()
	if err == nil {
		err = werr
	}
	var artifact []byte
	if err == nil {
		artifact, err = m.Result(st.ID)
	}
	if err != nil {
		m.Close()
		return nil, nil, nil, ps, fmt.Errorf("job %s: %w", name, err)
	}
	return m, st, artifact, ps, nil
}

// runJobOp runs one cold job and its warm repeats with the output checks:
// each artifact equals the unsharded reference, the coordinator's store
// stays one segment, and warm jobs compute nothing.
func runJobOp(cfg *config, rep *report, ref *jobRef, rec *Recorder) (*jobOp, error) {
	dir, err := os.MkdirTemp(cfg.scratch, "job-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	op := &jobOp{trace: rec.NewID()}
	names := jobNames()

	op.start = rec.Now()
	t0 := time.Now()
	m, st, artifact, ps, err := runJob(cfg, ref, dir, names[0], rec, op.trace)
	op.coldMS = ms(time.Since(t0))
	op.end = rec.Now()
	if err != nil {
		return nil, err
	}
	op.cold = ps
	if st.Store != nil {
		op.coldTiers = *st.Store
	}
	op.storeLen, op.segments = m.Store().Len(), m.Store().Segments()
	checkJob(rep, names[0], artifact, ref.want[names[0]], m, st, false)
	if err := m.Close(); err != nil {
		return nil, err
	}

	for _, name := range names[1:] {
		t0 := time.Now()
		m, st, artifact, ps, err := runJob(cfg, ref, dir, name, rec, op.trace)
		op.warmMS = append(op.warmMS, ms(time.Since(t0)))
		if err != nil {
			return nil, err
		}
		op.warm = append(op.warm, ps)
		checkJob(rep, name, artifact, ref.want[name], m, st, true)
		if err := m.Close(); err != nil {
			return nil, err
		}
	}
	return op, nil
}

// checkJob counts a failed operation for each output check that fails.
func checkJob(rep *report, name string, got, want []byte, m *jobs.Manager, st *jobs.Status, warm bool) {
	if !bytes.Equal(got, want) {
		rep.fail("job %s: sharded artifact differs from the unsharded sweep.Run", name)
	}
	if n := m.Store().Segments(); n != 1 {
		rep.fail("job %s: coordinator store has %d segments, want 1", name, n)
	}
	if warm && (st.Store == nil || st.Store.Misses != 0) {
		rep.fail("job %s: warm job computed searches: %+v", name, st.Store)
	}
}

// runJobSharded measures durable sharded jobs: a jobs.Manager with a
// remote-only shard coordinator and cfg.workers shared-nothing workers
// in this process, all over loopback HTTP. Set-up (the unsharded
// reference artifacts and the listener) runs three times.
func runJobSharded(cfg *config) (*report, error) {
	rep := newReport()
	setupS, ref, err := timeSetup(3, func() (*jobRef, error) { return newJobRef(cfg) }, func(r *jobRef) { r.lb.close() })
	if err != nil {
		return nil, err
	}
	defer ref.lb.close()
	rep.setE2E("setup_s", "s", setupS)

	var rec *Recorder
	if cfg.trace {
		rec = NewRecorder()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var coldU, coldT, warmU []float64
	var traced []*jobOp
	jobsRun := 0
	start := time.Now()
	deadline := start.Add(cfg.seconds)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		var r *Recorder
		if cfg.trace && i%2 == 1 {
			r = rec
		}
		op, err := runJobOp(cfg, rep, ref, r)
		if err != nil {
			return nil, err
		}
		jobsRun += 1 + len(op.warmMS)
		if i == 0 {
			setCounters(rep, op.cold.counts, op.storeLen, op.cold.uploaded)
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
	rep.attempted = jobsRun
	rep.setE2E("cold_ms", "ms", Median(coldU))
	rep.setE2E("warm_ms", "ms", Median(warmU))
	rep.setE2E("warm_p90_ms", "ms", Quantile(warmU, 0.9))
	rep.setE2E("ops_per_s", "1/s", float64(jobsRun)/elapsed.Seconds())
	if !cfg.trace {
		return rep, nil
	}
	if len(traced) == 0 {
		return nil, fmt.Errorf("the window fit no traced job; raise --seconds")
	}
	memDelta(rep, &before, &after)
	rep.setLayer("trace.overhead_pct", "%", overheadPct(coldU, coldT))
	return rep, jobLayers(cfg, rep, rec, traced)
}

// jobLayers reports the per-layer metrics of the traced job operations.
func jobLayers(cfg *config, rep *report, rec *Recorder, ops []*jobOp) error {
	n := float64(len(ops))
	var counts workCounts
	var searches []Span
	var records []searchRecord
	var leases, idle, retries, uploaded, batches, warmHits, hits, misses, disk float64
	var busy, idleMS, self, assemble, flush, reopen []float64
	spans := rec.Spans()
	for _, op := range ops {
		counts.add(op.cold.counts)
		records = append(records, op.cold.records...)
		for _, r := range op.cold.records {
			searches = append(searches, r.Span)
		}
		leases += float64(op.cold.leases)
		idle += float64(op.cold.idle)
		retries += float64(op.cold.retries)
		uploaded += float64(op.cold.uploaded)
		batches += float64(op.cold.batches)
		hits += float64(op.coldTiers.Hits)
		misses += float64(op.coldTiers.Misses)
		disk += float64(op.coldTiers.DiskHits)
		for _, w := range op.warm {
			warmHits += float64(w.warmHits)
		}

		// The cold job's worker lease intervals: their union is when a
		// worker was busy; what of the jobs.run span they leave
		// uncovered is the coordinator's own time (publish, assembly).
		var work []Span
		var run Span
		var lastComplete time.Duration
		for _, s := range spans {
			if s.Trace != op.trace {
				continue
			}
			if s.Start > op.end && s.Name == "jobs.open" {
				reopen = append(reopen, ms(s.Dur())) // a warm job reopening the store
			}
			if s.Start < op.start || s.End > op.end {
				continue
			}
			switch s.Name {
			case "shard.work":
				work = append(work, s)
			case "jobs.run":
				run = s
			case "shard.complete":
				lastComplete = max(lastComplete, s.End)
			case "store.flush":
				flush = append(flush, ms(s.Dur()))
			}
		}
		b := ms(covered(run.Start, run.End, work))
		var sum float64
		for _, w := range work {
			sum += ms(w.Dur())
		}
		busy = append(busy, sum)
		idleMS = append(idleMS, float64(cfg.workers)*ms(run.Dur())-sum)
		self = append(self, ms(run.Dur())-b)
		assemble = append(assemble, ms(run.End-lastComplete))
	}
	setSearchLayers(rep, counts, len(ops), searches)
	rep.setLayer("mapper.cache_hits", "count", hits/n)
	rep.setLayer("mapper.cache_misses", "count", misses/n)
	rep.setLayer("mapper.disk_hits", "count", disk/n)
	rep.setLayer("sweep.self_ms", "ms", Median(self))
	rep.setLayer("store.appends", "count", float64(ops[0].storeLen))
	rep.setLayer("store.len", "count", float64(ops[0].storeLen))
	rep.setLayer("store.segments", "count", float64(ops[0].segments))
	rep.setLayer("shard.leases", "count", leases/n)
	rep.setLayer("shard.idle_polls", "count", idle/n)
	rep.setLayer("shard.lease_work_ratio", "ratio", leases/max(leases+idle, 1))
	rep.setLayer("shard.retries", "count", retries/n)
	rep.setLayer("store.uploaded", "count", uploaded/n)
	rep.setLayer("store.upload_batches", "count", batches/n)
	rep.setLayer("store.warm_hits", "count", warmHits/n)
	rep.setLayer("shard.worker_busy_ms", "ms", Median(busy))
	rep.setLayer("shard.worker_idle_ms", "ms", Median(idleMS))
	rep.setLayer("jobs.assemble_ms", "ms", Median(assemble))
	rep.setLayer("jobs.open_ms", "ms", Median(reopen))
	rep.setLayer("shard.lease_p50_ms", "ms", Median(durationsMS(rec.Named("shard.lease"))))
	rep.setLayer("shard.complete_p50_ms", "ms", Median(durationsMS(rec.Named("shard.complete"))))
	rep.setLayer("store.remote_begin_ms", "ms", Median(durationsMS(rec.Named("store.remote_begin"))))
	rep.setLayer("store.flush_p50_ms", "ms", Median(flush))
	var nreq, nbytes float64
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "http.rtt") {
			nreq++
			nbytes += s.Attrs["bytes"]
		}
	}
	rep.setLayer("http.requests", "count", nreq/n)
	rep.setLayer("http.resp_bytes_mean", "B", nbytes/max(nreq, 1))

	ix, err := jobIndex()
	if err != nil {
		return err
	}
	if err := setModelLayers(rep, ix, records); err != nil {
		return err
	}
	return writeTrace(cfg, rec, nil)
}

// jobIndex indexes the zoo and every architecture variant of the job's
// axes, built the way the sweep builds them: the albireo preset's
// configuration with the axis fields set.
func jobIndex() (*index, error) {
	ix, err := newIndex()
	if err != nil {
		return nil, err
	}
	p, err := presets.ByName("albireo")
	if err != nil {
		return nil, err
	}
	base, _ := p.Albireo()
	for _, ol := range jobOutputLanes {
		for _, or := range jobORLanes {
			c := base
			c.OutputLanes, c.ORLanes = ol, or
			a, err := c.Build()
			if err != nil {
				return nil, err
			}
			ix.addArch(fmt.Sprintf("albireo/output_lanes=%d,or_lanes=%d", ol, or), a)
		}
	}
	return ix, nil
}
