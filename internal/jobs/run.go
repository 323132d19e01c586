package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"photoloop/internal/explore"
	"photoloop/internal/mapper"
	"photoloop/internal/shard"
	"photoloop/internal/sweep"
)

// Run evaluates a submitted job synchronously: every layer search is
// written through to the store as it completes, points stream to
// points.ndjson, and the final artifact lands in result.json. Running a
// job again — after a crash, a failure, or even completion — re-evaluates
// the spec against the warm store and rewrites byte-identical outputs;
// only searches no prior attempt finished are recomputed, and a sharded
// re-run leases only the points holding such searches. Context cancels
// between points.
//
// The artifact's cache counters (cache_hits/cache_misses) are zeroed:
// they describe the attempt, not the result, and differ between a clean
// and a resumed run of the same job. The per-tier traffic of the attempt
// is reported in Status.Store instead — a warm re-run shows Misses == 0,
// meaning not one mapper search ran.
//
// state.json is written when the attempt starts and when it ends; in
// between, Status and List report the run's in-memory status.
func (m *Manager) Run(ctx context.Context, id string) (*Status, error) {
	m.mu.Lock()
	if _, ok := m.running[id]; ok {
		m.mu.Unlock()
		return nil, fmt.Errorf("jobs: job %s is already running", id)
	}
	live := &liveJob{done: make(chan struct{})}
	m.running[id] = live
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		delete(m.running, id)
		m.mu.Unlock()
		close(live.done)
	}()

	sp, err := m.Spec(id)
	if err != nil {
		return nil, err
	}
	st, err := m.Status(id)
	if err != nil {
		return nil, err
	}
	if st.State != StatePending {
		st.Resumes++
	}
	st.State = StateRunning
	st.Done, st.Total, st.Error, st.Store, st.Shards = 0, 0, "", nil, nil
	if err := m.writeState(st); err != nil {
		return nil, err
	}
	m.update(func() { live.st = st })

	fail := func(runErr error) (*Status, error) {
		m.update(func() {
			st.State = StateFailed
			st.Error = runErr.Error()
		})
		if werr := m.writeState(st); werr != nil {
			return st, fmt.Errorf("%w (and writing state: %v)", runErr, werr)
		}
		return st, runErr
	}

	// Each attempt gets a fresh memory tier over the shared store: the
	// attempt's TierStats then describe exactly this run.
	cache := mapper.NewCache()
	cache.SetPersister(m.store)

	// The point log is rewritten per attempt (completion order may differ
	// between attempts; the store, not this log, is the checkpoint).
	pf, err := os.Create(m.pointsPath(id))
	if err != nil {
		return fail(fmt.Errorf("jobs: %w", err))
	}
	defer pf.Close()
	// Unbuffered: each point reaches the file as it completes.
	enc := json.NewEncoder(pf)
	var writeErr error
	delay := shard.PointDelay()
	onPoint := func(p *sweep.Point) {
		if writeErr == nil {
			writeErr = enc.Encode(p)
		}
		if delay > 0 {
			time.Sleep(delay)
		}
	}
	progress := func(done, total int) {
		m.update(func() { st.Done, st.Total = done, total })
		if m.Progress != nil {
			m.Progress(done, total)
		}
	}

	opts := sweep.Options{
		Workers: m.Workers, Context: ctx, Cache: cache,
		OnPoint: onPoint, Progress: progress,
	}
	// A sharded job publishes its sweep spec and hooks PreEvaluate: the
	// point indices of each evaluation — a sweep's whole grid, an
	// exploration's lattice or one adaptive generation — that the store
	// cannot already serve are leased to workers, after grid checks and
	// before the local run evaluates them, so the local run then
	// assembles the artifact from the warm store with zero
	// recomputation: byte-identical by construction. Warm points never
	// leave this process, and a fully warm job needs no worker. The hook
	// runs between generations, so a frontier stays a function of
	// (Spec, Seed).
	if m.Shard != nil {
		if ssp, ok := sp.shardSpec(); ok {
			sr, serr := m.startShard(ctx, st, ssp)
			if serr != nil {
				return fail(serr)
			}
			if sr != nil {
				defer sr.close()
				opts.PreEvaluate = sr.offer
			}
		}
	}

	var artifact bytes.Buffer
	switch {
	case sp.Sweep != nil:
		res, runErr := sweep.Run(*sp.Sweep, opts)
		if runErr != nil {
			return fail(runErr)
		}
		res.CacheHits, res.CacheMisses = 0, 0
		if err := res.WriteJSON(&artifact); err != nil {
			return fail(fmt.Errorf("jobs: encoding result: %w", err))
		}
	case sp.Explore != nil:
		f, runErr := explore.Run(*sp.Explore, opts)
		if runErr != nil {
			return fail(runErr)
		}
		f.CacheHits, f.CacheMisses = 0, 0
		if err := f.WriteJSON(&artifact); err != nil {
			return fail(fmt.Errorf("jobs: encoding result: %w", err))
		}
	default:
		return fail(fmt.Errorf("jobs: job %s: spec sets neither sweep nor explore", id))
	}
	if writeErr != nil {
		return fail(fmt.Errorf("jobs: streaming points: %w", writeErr))
	}
	if err := writeFileAtomic(m.resultPath(id), artifact.Bytes()); err != nil {
		return fail(err)
	}
	ts := cache.TierStats()
	m.update(func() {
		st.State = StateDone
		st.Store = &ts
	})
	if err := m.writeState(st); err != nil {
		return st, err
	}
	return st, nil
}
