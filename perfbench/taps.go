package main

import (
	"context"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"photoloop/internal/mapper"
	"photoloop/internal/shard"
)

// Taps are the benchmark's only instrumentation: wrappers around public
// interfaces of the program (mapper.Persister, shard.Coord,
// shard.WorkerStore, http.Handler, http.RoundTripper) that count always
// and time only when handed a Recorder.

// workCounts are the search-funnel totals of the searches a tap saw
// computed. For a fixed seed they repeat exactly.
type workCounts struct {
	Searches    int
	Evaluations int
	Pruned      int
	DeltaEvals  int
	FullEvals   int
	Duplicates  int
	Invalid     int
}

func (w *workCounts) add(o workCounts) {
	w.Searches += o.Searches
	w.Evaluations += o.Evaluations
	w.Pruned += o.Pruned
	w.DeltaEvals += o.DeltaEvals
	w.FullEvals += o.FullEvals
	w.Duplicates += o.Duplicates
	w.Invalid += o.Invalid
}

func (w *workCounts) sub(o workCounts) {
	w.add(workCounts{
		-o.Searches, -o.Evaluations, -o.Pruned, -o.DeltaEvals, -o.FullEvals, -o.Duplicates, -o.Invalid,
	})
}

// PrunedFraction is the share of scored candidates the lower bound
// discarded before a full evaluation.
func (w workCounts) PrunedFraction() float64 {
	scored := w.Pruned + w.DeltaEvals + w.FullEvals
	if scored == 0 {
		return 0
	}
	return float64(w.Pruned) / float64(scored)
}

// searchRecord is one computed search as the tap saw it: its cache key,
// its result and (when traced) its span.
type searchRecord struct {
	Key  mapper.Key
	Best *mapper.Best
	Span Span
}

// searchTap is a mapper.Persister installed on a search cache. A Load
// that misses is exactly the moment the cache starts computing a search,
// and the Store that follows carries the computed Best, so the pair
// brackets one search. Inner, when set, is the real durable tier (the
// store, a RemotePersister); without it the tap is a tier that never
// hits, which leaves the cache's results and counters unchanged.
type searchTap struct {
	inner mapper.Persister
	// rec is swapped in when a serve run enters its traced phase.
	rec   atomic.Pointer[Recorder]
	trace uint64
	// parent is the span that causes the searches, when one does.
	parent uint64

	mu      sync.Mutex
	open    map[mapper.Key]Span
	counts  workCounts
	records []searchRecord
	appends int // results written through to the inner tier
}

func newSearchTap(inner mapper.Persister, rec *Recorder, trace uint64) *searchTap {
	t := &searchTap{inner: inner, trace: trace, open: map[mapper.Key]Span{}}
	t.rec.Store(rec)
	return t
}

// Load implements mapper.Persister.
func (t *searchTap) Load(k mapper.Key) (*mapper.Best, bool) {
	if t.inner != nil {
		if b, ok := t.inner.Load(k); ok {
			return b, true
		}
	}
	if rec := t.rec.Load(); rec != nil {
		s := rec.Start("mapper.search", t.trace, t.parent)
		t.mu.Lock()
		t.open[k] = s
		t.mu.Unlock()
	}
	return nil, false
}

// Store implements mapper.Persister.
func (t *searchTap) Store(k mapper.Key, b *mapper.Best) error {
	rec := t.rec.Load()
	end := rec.Now()
	st := b.Stats
	c := workCounts{
		Searches: 1, Evaluations: b.Evaluations, Pruned: st.Pruned, DeltaEvals: st.DeltaEvals,
		FullEvals: st.FullEvals, Duplicates: st.Duplicates, Invalid: st.Invalid,
	}
	t.mu.Lock()
	t.counts.add(c)
	sr := searchRecord{Key: k, Best: b}
	if s, ok := t.open[k]; ok {
		delete(t.open, k)
		s.End = end
		s.Attrs = map[string]float64{"evaluations": float64(b.Evaluations), "pruned_fraction": st.PrunedFraction()}
		sr.Span = s
	}
	t.records = append(t.records, sr)
	t.mu.Unlock()
	if sr.Span.ID != 0 {
		rec.Keep(sr.Span)
	}
	if t.inner == nil {
		return nil
	}
	a := rec.Start("store.append", t.trace, sr.Span.ID)
	err := t.inner.Store(k, b)
	rec.End(a)
	t.mu.Lock()
	t.appends++
	t.mu.Unlock()
	return err
}

// snapshot returns the tap's counts and records so far.
func (t *searchTap) snapshot() (workCounts, []searchRecord) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts, append([]searchRecord(nil), t.records...)
}

// appendCount returns how many results the tap wrote through.
func (t *searchTap) appendCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.appends
}

// workerTap wraps a shared-nothing worker's store: the searchTap sees the
// worker's computed searches; Begin (digest pull) and Flush (upload) are
// timed.
type workerTap struct {
	*searchTap
	ws shard.WorkerStore
}

// Begin implements shard.WorkerStore.
func (w *workerTap) Begin(ctx context.Context, job string) error {
	rec := w.rec.Load()
	s := rec.Start("store.remote_begin", w.trace, 0)
	err := w.ws.Begin(ctx, job)
	rec.End(s)
	return err
}

// Flush implements shard.WorkerStore.
func (w *workerTap) Flush(ctx context.Context) error {
	rec := w.rec.Load()
	s := rec.Start("store.flush", w.trace, 0)
	err := w.ws.Flush(ctx)
	rec.End(s)
	return err
}

// coordTap wraps a worker's coordinator client: it counts leases and idle
// polls and, traced, times each protocol call and each lease's work
// interval (lease granted → completed) as a "shard.work" span.
type coordTap struct {
	inner shard.Coord
	rec   *Recorder
	trace uint64

	leases, idle atomic.Int64
	mu           sync.Mutex
	work         map[string]Span
}

func newCoordTap(inner shard.Coord, rec *Recorder, trace uint64) *coordTap {
	return &coordTap{inner: inner, rec: rec, trace: trace, work: map[string]Span{}}
}

// Lease implements shard.Coord.
func (c *coordTap) Lease(ctx context.Context, job string) (*shard.Lease, error) {
	s := c.rec.Start("shard.lease", c.trace, 0)
	l, err := c.inner.Lease(ctx, job)
	c.rec.End(s)
	switch {
	case err != nil:
	case l == nil:
		c.idle.Add(1)
	default:
		c.leases.Add(1)
		if c.rec != nil {
			w := c.rec.Start("shard.work", c.trace, 0)
			c.mu.Lock()
			c.work[l.ID] = w
			c.mu.Unlock()
		}
	}
	return l, err
}

// Heartbeat implements shard.Coord.
func (c *coordTap) Heartbeat(ctx context.Context, job, lease string) error {
	return c.inner.Heartbeat(ctx, job, lease)
}

// Complete implements shard.Coord.
func (c *coordTap) Complete(ctx context.Context, job, lease string) error {
	s := c.rec.Start("shard.complete", c.trace, 0)
	err := c.inner.Complete(ctx, job, lease)
	c.rec.End(s)
	c.endWork(lease)
	return err
}

// Fail implements shard.Coord.
func (c *coordTap) Fail(ctx context.Context, job, lease, msg string) error {
	err := c.inner.Fail(ctx, job, lease, msg)
	c.endWork(lease)
	return err
}

func (c *coordTap) endWork(lease string) {
	if c.rec == nil {
		return
	}
	c.mu.Lock()
	w, ok := c.work[lease]
	delete(c.work, lease)
	c.mu.Unlock()
	if ok {
		c.rec.End(w)
	}
}

// Request headers the serve clients set so the server-side handler span
// joins the client's trace.
const (
	traceHeader = "X-Bench-Trace"
	classHeader = "X-Bench-Class"
)

// spanName suffixes a request span's name with the request's class, when
// the client set one.
func spanName(name string, r *http.Request) string {
	if c := r.Header.Get(classHeader); c != "" {
		return name + "." + c
	}
	return name
}

// timedHandler wraps the server: one "sweep.handler.<class>" span per
// request, in the client's trace.
func timedHandler(rec *Recorder, h http.Handler) http.Handler {
	if rec == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		trace, _ := strconv.ParseUint(r.Header.Get(traceHeader), 10, 64)
		s := rec.Start(spanName("sweep.handler", r), trace, 0)
		h.ServeHTTP(w, r)
		rec.End(s)
	})
}

// timedTransport is the clients' RoundTripper: one "http.rtt.<class>"
// span per request, from sending the request until the caller closes the
// response body, so the span covers the whole response.
type timedTransport struct {
	rec   *Recorder
	inner http.RoundTripper
}

// RoundTrip implements http.RoundTripper.
func (t *timedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	trace, _ := strconv.ParseUint(r.Header.Get(traceHeader), 10, 64)
	s := t.rec.Start(spanName("http.rtt", r), trace, 0)
	resp, err := t.inner.RoundTrip(r)
	if err != nil {
		t.rec.End(s)
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, end: func(n int) {
		s.Attrs = map[string]float64{"bytes": float64(n)}
		t.rec.End(s)
	}}
	return resp, nil
}

// timedBody counts the bytes read and ends its span when closed.
type timedBody struct {
	io.ReadCloser
	n    int
	end  func(n int)
	once sync.Once
}

// Read implements io.Reader.
func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += n
	return n, err
}

// Close implements io.Closer.
func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.end(b.n) })
	return err
}

var _ shard.WorkerStore = (*workerTap)(nil)
var _ shard.Coord = (*coordTap)(nil)
var _ mapper.Persister = (*searchTap)(nil)
