package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"photoloop/internal/mapper"
	"photoloop/internal/sweep"
)

// Coord is what a worker needs from a coordinator. Local wraps a
// Coordinator for in-process workers (the coordinating process
// participating in its own job, tests); Client implements it over the
// serve API with retries (remote worker processes). The context bounds
// each call — over HTTP that includes the retry backoff.
type Coord interface {
	Lease(ctx context.Context, job string) (*Lease, error)
	Heartbeat(ctx context.Context, job, lease string) error
	Complete(ctx context.Context, job, lease string) error
	Fail(ctx context.Context, job, lease, msg string) error
}

// Local adapts an in-process Coordinator to the Coord interface. The
// Coordinator's own methods are synchronous map operations that cannot
// block, so the context is accepted and ignored.
type Local struct {
	// C is the wrapped coordinator.
	C *Coordinator
}

// Lease implements Coord.
func (l Local) Lease(ctx context.Context, job string) (*Lease, error) { return l.C.Lease(job) }

// Heartbeat implements Coord.
func (l Local) Heartbeat(ctx context.Context, job, lease string) error {
	return l.C.Heartbeat(job, lease)
}

// Complete implements Coord.
func (l Local) Complete(ctx context.Context, job, lease string) error {
	return l.C.Complete(job, lease)
}

// Fail implements Coord.
func (l Local) Fail(ctx context.Context, job, lease, msg string) error {
	return l.C.Fail(job, lease, msg)
}

// WorkerStore is a worker's result channel: the mapper.Persister its
// per-lease caches write through, plus the lease-lifecycle hooks. Begin
// runs at lease start (a store.RemotePersister pulls the coordinator's
// warm-key digest); Flush runs before Complete and must not return until
// every result of the lease is durable outside this process — a range
// must never be marked done while its results can still be lost with the
// worker.
type WorkerStore interface {
	mapper.Persister
	// Begin prepares the store for one lease of the named job.
	Begin(ctx context.Context, job string) error
	// Flush makes every stored result durable before the lease completes.
	Flush(ctx context.Context) error
}

// WorkerOptions tunes a Work loop.
type WorkerOptions struct {
	// Job restricts the worker to one job id ("" = any published job).
	Job string
	// Poll is the idle wait between lease attempts when the coordinator
	// has nothing (default 200ms).
	Poll time.Duration
	// MaxLeases stops the loop after that many completed leases (0 =
	// run until the context ends). Tests use it; production workers run
	// unbounded.
	MaxLeases int
	// OnLease, when set, observes each acquired lease (diagnostics).
	OnLease func(*Lease)
}

// pointDelayEnv mirrors the jobs runner's test hook: a per-task sleep
// that widens crash windows so tests can SIGKILL a worker mid-lease
// deterministically.
const pointDelayEnv = "PHOTOLOOP_JOB_POINT_DELAY"

// maxConsecutiveFailures is how many coordinator calls in a row may fail
// (after the Client's own retries) before the worker loop gives up. A
// blip degrades to retry-then-poll; only a coordinator that stays dead
// through this many rounds ends the worker.
const maxConsecutiveFailures = 10

// Work runs a worker loop: lease a task range, prepare the store, warm it
// with the range's searches, flush, report completion; repeat until the
// context ends (which is the normal way to stop a worker — a clean
// return, not an error). The WorkerStore is the worker's entire output
// channel — evaluated points are discarded, only their searches matter:
// a store.RemotePersister uploads them to the coordinator over HTTP, and
// the coordinating process's own loop writes straight to its store.
// Coordinator failures degrade to retry: a lease, heartbeat or complete
// call that fails never abandons already-durable results, and only
// maxConsecutiveFailures failed rounds in a row stop the loop.
func Work(ctx context.Context, c Coord, ws WorkerStore, opts WorkerOptions) error {
	poll := opts.Poll
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	completed := 0
	failures := 0
	wait := func() {
		select {
		case <-ctx.Done():
		case <-time.After(poll):
		}
	}
	for {
		if err := ctx.Err(); err != nil {
			return nil
		}
		lease, err := c.Lease(ctx, opts.Job)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			if failures++; failures >= maxConsecutiveFailures {
				return fmt.Errorf("shard: coordinator unreachable after %d attempts: %w", failures, err)
			}
			wait()
			continue
		}
		failures = 0
		if lease == nil {
			wait()
			continue
		}
		if opts.OnLease != nil {
			opts.OnLease(lease)
		}
		if err := workLease(ctx, c, ws, lease); err != nil {
			// A spec-level failure: hand the range back with the reason.
			// The lease may already be stale (heartbeat lost) — Fail is a
			// no-op then, and a Fail the coordinator never hears is
			// equivalent (the lease expires on its own).
			c.Fail(ctx, lease.Job, lease.ID, err.Error())
			if ctx.Err() != nil {
				return nil
			}
			continue
		}
		if err := c.Complete(ctx, lease.Job, lease.ID); err != nil {
			// The results are already flushed, so losing the Complete costs
			// a reassignment (the next holder finds every search warm), not
			// correctness. Keep working unless the coordinator stays dead.
			if ctx.Err() != nil {
				return nil
			}
			if failures++; failures >= maxConsecutiveFailures {
				return err
			}
			wait()
			continue
		}
		completed++
		if opts.MaxLeases > 0 && completed >= opts.MaxLeases {
			return nil
		}
	}
}

// workLease executes one lease: Begin the store for the job (pull the
// coordinator's warm-key digest, so tasks another worker already computed
// become hits), evaluate every
// task with a fresh two-tier cache over the worker store, then Flush
// before the caller Completes — results must be durable outside this
// process before the range can be marked done. A heartbeat goroutine
// keeps the lease alive; losing it (the coordinator reassigned the
// range) cancels the work mid-flight, since finishing a stolen range
// only duplicates another worker's effort — but what was already
// computed still flushes: uploads dedupe first-write-wins, so the effort
// is banked either way.
func workLease(ctx context.Context, c Coord, ws WorkerStore, lease *Lease) error {
	if err := ws.Begin(ctx, lease.Job); err != nil {
		return err
	}
	cache := mapper.NewCache()
	cache.SetPersister(ws)

	lctx, cancel := context.WithCancel(ctx)
	defer cancel()
	hbDone := make(chan struct{})
	ttl := time.Duration(lease.TTLMillis) * time.Millisecond
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	go func() {
		defer close(hbDone)
		t := time.NewTicker(ttl / 3)
		defer t.Stop()
		for {
			select {
			case <-lctx.Done():
				return
			case <-t.C:
				if err := c.Heartbeat(lctx, lease.Job, lease.ID); err != nil {
					cancel()
					return
				}
			}
		}
	}()
	err := evalTasks(lctx, cache, lease)
	cancel()
	<-hbDone
	// Flush under the parent context: even a lease lost mid-range has
	// banked work worth uploading, and only a real shutdown aborts it.
	if ferr := ws.Flush(ctx); err == nil {
		err = ferr
	}
	return err
}

// evalTasks evaluates a lease's point indices of its published sweep
// spec. Point-level failures (Point.Err) are not errors here: the final
// assembly run reproduces them locally from the same deterministic
// evaluation, and a point that fails has no searches to warm anyway.
func evalTasks(ctx context.Context, cache *mapper.Cache, lease *Lease) error {
	var sp sweep.Spec
	if err := json.Unmarshal(lease.Spec, &sp); err != nil {
		return fmt.Errorf("shard: decoding sweep spec: %w", err)
	}
	ev, err := sweep.NewEvaluator(sp, sweep.Options{Cache: cache})
	if err != nil {
		return err
	}
	delay, _ := time.ParseDuration(os.Getenv(pointDelayEnv))
	for _, task := range lease.Tasks {
		if _, err := ev.EvalPoint(int(task)); err != nil {
			return err
		}
		if delay > 0 {
			time.Sleep(delay)
		}
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}
