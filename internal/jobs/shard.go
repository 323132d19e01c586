package jobs

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"photoloop/internal/mapper"
	"photoloop/internal/shard"
	"photoloop/internal/sweep"
)

// shardProgressInterval is how often a waiting coordinator refreshes
// Status.Shards while workers chew through a generation.
const shardProgressInterval = 150 * time.Millisecond

// shardRun is one job's fan-out session on the manager's coordinator:
// publish, offer generations, wait. Workers only warm the manager's
// store — the artifact is still assembled by the unchanged local code
// path afterwards, which is what makes sharded output byte-identical to
// single-process output.
type shardRun struct {
	m      *Manager
	ctx    context.Context
	st     *Status
	ev     *sweep.Evaluator // the published spec's, for offer's key walk
	gen    int
	cancel context.CancelFunc // stops the local worker, when one runs
	done   chan struct{}      // closed when the local worker exits
}

// shardSpec returns the sweep spec a sharded run of the job publishes,
// and whether the job can shard at all: a sweep job publishes its own
// spec, an explore job its SweepSpec, whose point index is the lattice
// index. Warm-start sweeps chain searches across points (each
// warm start is part of the next search's cache key), so they cannot be
// partitioned; they run locally, as does an exploration without a sweep
// equivalent (explore.Run reports its error).
func (sp *Spec) shardSpec() (sweep.Spec, bool) {
	switch {
	case sp.Sweep != nil:
		return *sp.Sweep, !sp.Sweep.WarmStart
	case sp.Explore != nil:
		ssp, err := sp.Explore.SweepSpec()
		return ssp, err == nil
	}
	return sweep.Spec{}, false
}

// startShard publishes the job's sweep spec on the coordinator and, when
// ShardLocal, starts an in-process worker loop so a sharded job completes
// even if no worker process ever attaches. It returns nil when the
// evaluator rejects the spec; the job then runs unsharded and its local
// run reports the error.
func (m *Manager) startShard(ctx context.Context, st *Status, sp sweep.Spec) (*shardRun, error) {
	ev, err := sweep.NewEvaluator(sp, sweep.Options{})
	if err != nil {
		return nil, nil
	}
	spec, err := json.Marshal(sp)
	if err != nil {
		return nil, fmt.Errorf("jobs: encoding sweep spec for sharding: %w", err)
	}
	m.Shard.Publish(st.ID, spec)
	sr := &shardRun{m: m, ctx: ctx, st: st, ev: ev}
	if m.ShardLocal {
		wctx, cancel := context.WithCancel(ctx)
		sr.cancel = cancel
		sr.done = make(chan struct{})
		go func() {
			defer close(sr.done)
			shard.Work(wctx, shard.Local{C: m.Shard}, localStore{m.store}, shard.WorkerOptions{
				Job:  st.ID,
				Poll: 25 * time.Millisecond,
			})
		}()
	}
	return sr, nil
}

// offer posts one generation of the point indices whose searches the
// manager's store cannot already serve, and waits until workers finish
// it (updating Status.Shards as ranges complete); every search of the
// generation is then in the manager's store. A point counts as served
// only when the exact store.Store.Has holds every one of its search keys
// (sweep.Evaluator.ColdPoints), so a warm point never leaves the
// coordinator, and a fully warm generation offers no range at all and
// completes at once, with or without workers attached. It is the run's
// sweep.Options.PreEvaluate.
func (sr *shardRun) offer(tasks []int64) error {
	m, id := sr.m, sr.st.ID
	done, err := m.Shard.Offer(id, sr.gen, sr.ev.ColdPoints(tasks, m.store.Has))
	if err != nil {
		return err
	}
	sr.gen++
	t := time.NewTicker(shardProgressInterval)
	defer t.Stop()
wait:
	for {
		select {
		case <-done:
			break wait
		case <-sr.ctx.Done():
			return sr.ctx.Err()
		case <-t.C:
			sr.publishProgress()
		}
	}
	sr.publishProgress()
	return m.Shard.Err(id)
}

// publishProgress mirrors the coordinator's lease accounting into the
// job's persisted status.
func (sr *shardRun) publishProgress() {
	if p, ok := sr.m.Shard.Progress(sr.st.ID); ok {
		sr.st.Shards = &p
		sr.m.writeState(sr.st)
	}
}

// close retires the job from the coordinator (remote workers stop being
// offered it) and stops the local worker.
func (sr *shardRun) close() {
	sr.m.Shard.Retire(sr.st.ID)
	if sr.cancel != nil {
		sr.cancel()
		<-sr.done
	}
}

// localStore is the in-process worker loop's result channel: the
// manager's own store, already durable on every append, so a lease needs
// no preparation and no flush.
type localStore struct{ mapper.Persister }

// Begin implements shard.WorkerStore.
func (localStore) Begin(context.Context, string) error { return nil }

// Flush implements shard.WorkerStore.
func (localStore) Flush(context.Context) error { return nil }
