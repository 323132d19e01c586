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
	m   *Manager
	ctx context.Context
	st  *Status
	gen int
	// points is the published spec's NumPoints: a sweep's task count.
	// Explore candidates arrive through offer instead.
	points int
	cancel context.CancelFunc // stops the local worker, when one runs
	done   chan struct{}      // closed when the local worker exits
}

// startShard publishes the job's sweep spec on the coordinator and, when
// ShardLocal, starts an in-process worker loop so a sharded job completes
// even if no worker process ever attaches. An unset SearchWorkers is
// pinned to this process's default first, the value the assembly run
// resolves it to: it is part of every search's cache key, so workers
// with another core count still compute exactly the keys the assembly
// run looks up. It returns nil when the evaluator rejects the
// spec; the job then runs unsharded and its local run reports the error.
func (m *Manager) startShard(ctx context.Context, st *Status, sp sweep.Spec) (*shardRun, error) {
	if sp.SearchWorkers <= 0 {
		sp.SearchWorkers = mapper.DefaultSearchWorkers()
	}
	ev, err := sweep.NewEvaluator(sp, sweep.Options{})
	if err != nil {
		return nil, nil
	}
	spec, err := json.Marshal(sp)
	if err != nil {
		return nil, fmt.Errorf("jobs: encoding sweep spec for sharding: %w", err)
	}
	m.Shard.Publish(st.ID, spec)
	sr := &shardRun{m: m, ctx: ctx, st: st, points: ev.NumPoints()}
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

// offer posts one generation of task indices and waits until workers
// finish it (updating Status.Shards as ranges complete); every search the
// generation computed is then in the manager's store. Its signature is
// explore.Options.PreEvaluate.
func (sr *shardRun) offer(tasks []int64) error {
	m, id := sr.m, sr.st.ID
	done, err := m.Shard.Offer(id, sr.gen, tasks)
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

// taskIndices enumerates [0, n).
func taskIndices(n int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}
