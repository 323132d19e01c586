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
	"photoloop/internal/sweep"
)

// pointDelayEnv, when set to a time.Duration, sleeps after each streamed
// point. It exists for the crash-recovery tests, which need a run slow
// enough to SIGKILL mid-flight deterministically; it is not part of the
// public surface.
const pointDelayEnv = "PHOTOLOOP_JOB_POINT_DELAY"

func pointDelay() time.Duration {
	v := os.Getenv(pointDelayEnv)
	if v == "" {
		return 0
	}
	d, err := time.ParseDuration(v)
	if err != nil || d < 0 {
		return 0
	}
	return d
}

// Run evaluates a submitted job synchronously: every layer search is
// written through to the store as it completes, points stream to
// points.ndjson, and the final artifact lands in result.json. Running a
// job again — after a crash, a failure, or even completion — re-evaluates
// the spec against the warm store and rewrites byte-identical outputs;
// only searches no prior attempt finished are recomputed. Context cancels
// between points.
//
// The artifact's cache counters (cache_hits/cache_misses) are zeroed:
// they describe the attempt, not the result, and differ between a clean
// and a resumed run of the same job. The per-tier traffic of the attempt
// is reported in Status.Store instead — a warm re-run shows Misses == 0,
// meaning not one mapper search ran.
func (m *Manager) Run(ctx context.Context, id string) (*Status, error) {
	m.mu.Lock()
	if _, ok := m.running[id]; ok {
		m.mu.Unlock()
		return nil, fmt.Errorf("jobs: job %s is already running", id)
	}
	done := make(chan struct{})
	m.running[id] = done
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		delete(m.running, id)
		m.mu.Unlock()
		close(done)
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

	fail := func(runErr error) (*Status, error) {
		st.State = StateFailed
		st.Error = runErr.Error()
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
	var writeErr error
	delay := pointDelay()
	onPoint := func(p *sweep.Point) {
		if writeErr == nil {
			enc := json.NewEncoder(pf)
			writeErr = enc.Encode(p)
		}
		if delay > 0 {
			time.Sleep(delay)
		}
	}
	progress := func(done, total int) {
		st.Done, st.Total = done, total
		// State writes are progress reporting; a transient failure must
		// not kill the run (the store still checkpoints every search).
		m.writeState(st)
		if m.Progress != nil {
			m.Progress(done, total)
		}
	}

	var artifact bytes.Buffer
	switch {
	case sp.Sweep != nil:
		// Sharded sweeps farm the whole grid out as generation 0, then
		// fall through to the unchanged local run, which finds every
		// search warm in the store and assembles the artifact with zero
		// recomputation — byte-identical by construction. Warm-start
		// sweeps chain searches across points (each warm start is part
		// of the next search's cache key), so they cannot be
		// partitioned: they run locally, as does a spec the evaluator
		// rejects (Run reports the error).
		if m.Shard != nil && !sp.Sweep.WarmStart {
			sr, serr := m.startShard(ctx, st, *sp.Sweep)
			if serr != nil {
				return fail(serr)
			}
			if sr != nil {
				serr = sr.offer(taskIndices(int64(sr.points)))
				sr.close()
				if serr != nil {
					return fail(serr)
				}
			}
		}
		res, runErr := sweep.Run(*sp.Sweep, sweep.Options{
			Workers: m.Workers, Context: ctx, Cache: cache,
			OnPoint: onPoint, Progress: progress,
		})
		if runErr != nil {
			return fail(runErr)
		}
		res.CacheHits, res.CacheMisses = 0, 0
		if err := res.WriteJSON(&artifact); err != nil {
			return fail(fmt.Errorf("jobs: encoding result: %w", err))
		}
	case sp.Explore != nil:
		eopts := explore.Options{
			Workers: m.Workers, Context: ctx, Cache: cache,
			OnPoint: onPoint, Progress: progress,
		}
		// Sharded explorations publish their canonical sweep equivalent
		// and hook PreEvaluate: each candidate batch is offered as a
		// generation of its point indices and evaluated by workers before
		// the local run scores it from the warm store. The hook runs
		// between generations, so the frontier stays a function of
		// (Spec, Seed). A spec without a sweep equivalent runs unsharded,
		// and explore.Run reports its error.
		if m.Shard != nil {
			if ssp, eerr := sp.Explore.SweepSpec(); eerr == nil {
				sr, serr := m.startShard(ctx, st, ssp)
				if serr != nil {
					return fail(serr)
				}
				if sr != nil {
					defer sr.close()
					eopts.PreEvaluate = sr.offer
				}
			}
		}
		f, runErr := explore.Run(*sp.Explore, eopts)
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
	st.State = StateDone
	st.Store = &ts
	if err := m.writeState(st); err != nil {
		return st, err
	}
	return st, nil
}
