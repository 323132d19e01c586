// Package shard fans one durable job out across worker processes that
// feed a single result store. The design exploits the repo's central
// invariant — the store is the checkpoint — to keep distribution small.
// The coordinator publishes one fully resolved sweep spec per job (an
// explore job publishes its canonical sweep equivalent), and a lease is
// a range of point indices of the coordinator-resolved sweep spec. A
// worker evaluates them (sweep.Evaluator.EvalPoint) with a fresh
// mapper.Cache whose persister uploads every completed search to the
// coordinator (store.RemotePersister; the coordinator appends it to its
// own store), and reports only "done". Every cache-key input is set in
// the published spec, so a worker computes exactly the keys the
// coordinator looks up, whatever its own core count. The coordinator then runs the unchanged
// single-process code path, which finds every leased search already
// present and assembles the artifact with zero searches — byte-identical
// to an unsharded run by construction, and order-independent, because
// content-addressed cache hits are bit-identical no matter which process
// computed them or in what order.
//
// Failure semantics follow from the same invariant. Leases carry a TTL
// and are kept alive by heartbeats; a worker that dies (SIGKILL, network
// partition, wedged host) simply stops heartbeating, the lease expires,
// and the range is handed to the next worker. Whatever the dead worker
// had already uploaded is in the coordinator's store, so reassignment
// repeats only the rest of its range. Two workers racing on the same
// range — possible when a lease expires while its holder limps along — is
// harmless for the same reason: both upload bit-identical records and the
// store deduplicates first-write-wins. Completing an already-reassigned
// lease is therefore accepted as a no-op, not an error.
package shard

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"
)

// DefaultLeaseTTL is how long a lease survives without a heartbeat.
// Workers heartbeat at TTL/3, so expiry takes three missed beats —
// enough to ride out a GC pause or a slow scheduler tick, short enough
// that a SIGKILLed worker's range is reassigned within seconds.
const DefaultLeaseTTL = 10 * time.Second

// DefaultRanges is how many lease ranges one offered generation is split
// into: enough slices that four workers stay busy with re-leasing slack,
// few enough that per-lease overhead (a digest pull, an evaluator build)
// stays amortized.
const DefaultRanges = 16

// maxAttempts bounds how many times one range is reassigned before the
// generation is declared failed: a range that kills five workers in a row
// is a poison task, not bad luck.
const maxAttempts = 5

// Lease is one unit of handed-out work: a range of point indices of the
// coordinator-resolved sweep spec of one job, in one generation. The spec
// travels in the lease, so a worker needs no other endpoint to evaluate
// its tasks (sweep.Evaluator.EvalPoint).
type Lease struct {
	ID        string          `json:"id"`
	Job       string          `json:"job"`
	Gen       int             `json:"gen"`
	Tasks     []int64         `json:"tasks"`
	Spec      json.RawMessage `json:"spec"`
	TTLMillis int64           `json:"ttl_millis"`
}

// Progress is one job's sharding state, surfaced by `jobs status` and the
// coordinator's HTTP status.
type Progress struct {
	Gen     int `json:"gen"`
	Ranges  int `json:"ranges"`
	Pending int `json:"pending"`
	Leased  int `json:"leased"`
	Done    int `json:"done"`
	// Reassigned counts leases that expired or failed and were handed
	// out again — nonzero after a worker death.
	Reassigned int `json:"reassigned,omitempty"`
}

type rangeState int

const (
	rangePending rangeState = iota
	rangeLeased
	rangeDone
)

// taskRange is one leasable slice of a generation.
type taskRange struct {
	tasks    []int64
	state    rangeState
	leaseID  string
	expires  time.Time
	attempts int
}

// generation is one offered batch of tasks: a whole sweep, or one
// adaptive explore generation.
type generation struct {
	gen    int
	ranges []*taskRange
	done   chan struct{}
	err    error
	closed bool
}

// jobState is one published job.
type jobState struct {
	id   string
	spec json.RawMessage
	cur  *generation
	// reassigned accumulates across generations for Progress.
	reassigned int
}

// Coordinator hands out range leases over published jobs. It is an
// in-memory structure owned by the coordinating process (the one running
// the job); durability lives in the store and the jobs directory, so a
// coordinator crash is just a job crash — `jobs resume` republishes and
// the store replays everything already computed.
type Coordinator struct {
	// LeaseTTL is the heartbeat deadline (default DefaultLeaseTTL).
	LeaseTTL time.Duration
	// Ranges is how many slices one generation is split into (default
	// DefaultRanges; a generation never splits below one task per range).
	Ranges int

	mu   sync.Mutex
	now  func() time.Time // test hook; never nil after NewCoordinator
	jobs map[string]*jobState
	// order preserves publish order for any-job leasing.
	order []string
	seq   int64
}

// NewCoordinator returns an empty coordinator with default tuning.
func NewCoordinator() *Coordinator {
	return &Coordinator{
		LeaseTTL: DefaultLeaseTTL,
		Ranges:   DefaultRanges,
		now:      time.Now,
		jobs:     map[string]*jobState{},
	}
}

func (c *Coordinator) ttl() time.Duration {
	if c.LeaseTTL > 0 {
		return c.LeaseTTL
	}
	return DefaultLeaseTTL
}

// Publish registers a job so workers can lease its generations. spec is
// the job's fully resolved sweep.Spec, encoded: every cache-key input is
// set, so every worker computes exactly the keys the coordinator's
// assembly run looks up. It rides inside every lease, whose task indices
// are its point indices. Publishing an already-published id replaces its
// spec and drops any stale generation (the resume case).
func (c *Coordinator) Publish(id string, spec json.RawMessage) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.jobs[id]; !ok {
		c.order = append(c.order, id)
	}
	c.jobs[id] = &jobState{id: id, spec: spec}
}

// Retire drops a job: outstanding leases die quietly (Complete on them
// becomes the usual no-op) and workers stop being offered its work.
func (c *Coordinator) Retire(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if js, ok := c.jobs[id]; ok {
		if js.cur != nil && !js.cur.closed {
			js.cur.closed = true
			close(js.cur.done)
		}
		delete(c.jobs, id)
		for i, o := range c.order {
			if o == id {
				c.order = append(c.order[:i], c.order[i+1:]...)
				break
			}
		}
	}
}

// Offer posts one generation of tasks for leasing and returns a channel
// closed when every range is done (or the generation failed — check Err
// after). Offering a new gen replaces the previous generation (whose
// channel is closed if it wasn't already). An empty task list completes
// immediately.
func (c *Coordinator) Offer(id string, gen int, tasks []int64) (<-chan struct{}, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	js, ok := c.jobs[id]
	if !ok {
		return nil, fmt.Errorf("shard: job %s not published", id)
	}
	if js.cur != nil && !js.cur.closed {
		js.cur.closed = true
		close(js.cur.done)
	}
	g := &generation{gen: gen, done: make(chan struct{})}
	nr := c.Ranges
	if nr <= 0 {
		nr = DefaultRanges
	}
	if nr > len(tasks) {
		nr = len(tasks)
	}
	for i := 0; i < nr; i++ {
		// Contiguous slices, remainder spread over the leading ranges:
		// consecutive sweep points share layer shapes and warm caches, so
		// contiguity is worth keeping.
		lo, hi := i*len(tasks)/nr, (i+1)*len(tasks)/nr
		g.ranges = append(g.ranges, &taskRange{tasks: tasks[lo:hi]})
	}
	if len(g.ranges) == 0 {
		g.closed = true
		close(g.done)
	}
	js.cur = g
	return g.done, nil
}

// Err reports the current generation's failure, if any (checked after the
// Offer channel closes).
func (c *Coordinator) Err(id string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if js, ok := c.jobs[id]; ok && js.cur != nil {
		return js.cur.err
	}
	return nil
}

// Lease hands out one pending (or expired) range of the named job, or of
// any published job when id is empty. It returns nil when no work is
// available — workers poll.
func (c *Coordinator) Lease(id string) (*Lease, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := c.order
	if id != "" {
		if _, ok := c.jobs[id]; !ok {
			return nil, fmt.Errorf("shard: job %s not published", id)
		}
		ids = []string{id}
	}
	now := c.now()
	for _, jid := range ids {
		js := c.jobs[jid]
		if js == nil || js.cur == nil || js.cur.closed {
			continue
		}
		for _, r := range js.cur.ranges {
			if r.state == rangeLeased && now.After(r.expires) {
				// The holder went silent: expire the lease. The range's
				// completed prefix is already in the store; only the tail
				// is recomputed by the next holder.
				r.state = rangePending
				r.leaseID = ""
				js.reassigned++
			}
			if r.state != rangePending {
				continue
			}
			if r.attempts >= maxAttempts {
				c.failGenerationLocked(js, fmt.Errorf("shard: range abandoned after %d attempts", r.attempts))
				break
			}
			r.attempts++
			r.state = rangeLeased
			r.expires = now.Add(c.ttl())
			c.seq++
			r.leaseID = fmt.Sprintf("L%06d", c.seq)
			return &Lease{
				ID:        r.leaseID,
				Job:       jid,
				Gen:       js.cur.gen,
				Tasks:     r.tasks,
				Spec:      js.spec,
				TTLMillis: c.ttl().Milliseconds(),
			}, nil
		}
	}
	return nil, nil
}

// findLease locates a live lease by id. Returns nils for anything stale —
// expired, reassigned, retired, or from an older generation.
func (c *Coordinator) findLease(job, lease string) (*jobState, *taskRange) {
	js, ok := c.jobs[job]
	if !ok || js.cur == nil {
		return nil, nil
	}
	for _, r := range js.cur.ranges {
		if r.state == rangeLeased && r.leaseID == lease {
			return js, r
		}
	}
	return nil, nil
}

// Heartbeat extends a lease. An unknown lease returns an error so the
// worker stops working a range that has been reassigned — its partial
// results are in the store either way.
func (c *Coordinator) Heartbeat(job, lease string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	js, r := c.findLease(job, lease)
	if r == nil {
		return fmt.Errorf("shard: lease %s is not live", lease)
	}
	_ = js
	r.expires = c.now().Add(c.ttl())
	return nil
}

// Complete marks a lease's range done. Completing a lease that is no
// longer live (expired and reassigned, job retired) is a no-op: the work
// itself is in the store, and the range will be — or already was —
// finished by another holder.
func (c *Coordinator) Complete(job, lease string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	js, r := c.findLease(job, lease)
	if r == nil {
		return nil
	}
	r.state = rangeDone
	r.leaseID = ""
	for _, rr := range js.cur.ranges {
		if rr.state != rangeDone {
			return nil
		}
	}
	js.cur.closed = true
	close(js.cur.done)
	return nil
}

// Fail returns a lease's range to the pending pool (a worker hit a
// spec-level error or is shutting down cleanly). The range's attempt
// count already advanced at lease time, so ranges that fail every holder
// eventually abandon the generation.
func (c *Coordinator) Fail(job, lease, msg string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	js, r := c.findLease(job, lease)
	if r == nil {
		return nil
	}
	r.state = rangePending
	r.leaseID = ""
	js.reassigned++
	if r.attempts >= maxAttempts {
		c.failGenerationLocked(js, fmt.Errorf("shard: range failed %d times (last: %s)", r.attempts, msg))
	}
	return nil
}

// failGenerationLocked records a terminal generation error and releases
// every waiter. Caller holds c.mu.
func (c *Coordinator) failGenerationLocked(js *jobState, err error) {
	if js.cur == nil || js.cur.closed {
		return
	}
	js.cur.err = err
	js.cur.closed = true
	close(js.cur.done)
}

// Progress reports a job's sharding state; ok is false for unpublished
// jobs.
func (c *Coordinator) Progress(id string) (Progress, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	js, ok := c.jobs[id]
	if !ok {
		return Progress{}, false
	}
	p := Progress{Reassigned: js.reassigned}
	if js.cur == nil {
		return p, true
	}
	p.Gen = js.cur.gen
	p.Ranges = len(js.cur.ranges)
	now := c.now()
	for _, r := range js.cur.ranges {
		switch {
		case r.state == rangeDone:
			p.Done++
		case r.state == rangeLeased && !now.After(r.expires):
			p.Leased++
		default:
			p.Pending++
		}
	}
	return p, true
}
