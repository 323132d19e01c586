package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"photoloop/internal/jobs"
	"photoloop/internal/mapper"
	"photoloop/internal/sweep"
)

// evalCase is one (preset, network, objective) /v1/eval request shape.
type evalCase struct{ Preset, Network, Objective string }

// hotCases is the hot set: warmed in set-up, then repeated as memory-tier
// hits. The composition is fixed; only the mapper seeds follow --seed,
// so hit latency is comparable across seeds.
var hotCases = []evalCase{
	{"albireo", "resnet18", "energy"},
	{"albireo-aggressive", "alexnet", "delay"},
	{"albireo-wdm-wide", "vgg16", "edp"},
	{"albireo-adc-lean", "resnet18", "energy"},
	{"electrical-baseline", "alexnet", "energy"},
	{"albireo", "vgg16", "delay"},
	{"albireo-aggressive", "resnet18", "edp"},
	{"electrical-baseline", "resnet18", "delay"},
}

// missCases rotate with a fresh mapper seed per request: every layer
// misses memory and store, searches, and appends to the store.
var missCases = []evalCase{
	{"albireo", "alexnet", "energy"},
	{"albireo-adc-lean", "alexnet", "delay"},
	{"electrical-baseline", "alexnet", "edp"},
}

// missRate is how many misses per second the clients send. Misses follow
// a clock rather than a share of requests, so the number of distinct
// keys a run adds, and the memory they hold, does not depend on how fast
// the machine serves hits. At ~20 ms of search each they take a fifth of
// two CPUs: a slower machine then loses hit throughput in proportion,
// where a larger share would amplify the loss.
const missRate = 20

// missClock paces the misses: the k-th is due k/missRate seconds after
// the window opens, and the first client to start a request after that
// sends it.
type missClock struct {
	start time.Time
	next  atomic.Int64
}

// take claims the next miss if it is due.
func (c *missClock) take() (int64, bool) {
	for {
		k := c.next.Load()
		if time.Since(c.start) < time.Duration(k)*time.Second/missRate {
			return 0, false
		}
		if c.next.CompareAndSwap(k, k+1) {
			return k, true
		}
	}
}

// evalRequest builds the request for a case; every search is pinned to
// one worker.
func evalRequest(c evalCase, seed int64) *sweep.EvalRequest {
	return &sweep.EvalRequest{Preset: c.Preset, Network: c.Network, Objective: c.Objective, Seed: seed, Workers: 1}
}

// loopback is an HTTP listener on 127.0.0.1 whose handler can be swapped
// while it runs: a traced phase wraps the server in a timing handler,
// and a reopened job manager brings a new server.
type loopback struct {
	hs      *http.Server
	url     string
	done    chan struct{}
	handler atomic.Pointer[http.Handler]
}

func listen(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lb := &loopback{url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	lb.set(h)
	lb.hs = &http.Server{Handler: lb}
	go func() {
		defer close(lb.done)
		lb.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return lb, nil
}

func (lb *loopback) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*lb.handler.Load()).ServeHTTP(w, r)
}

func (lb *loopback) set(h http.Handler) { lb.handler.Store(&h) }

// close stops the listener and waits for its serving goroutine.
func (lb *loopback) close() {
	lb.hs.Close()
	<-lb.done
}

// serveStack is one in-process server: a job manager over a temporary
// store, the sweep server with the job API attached and its search cache
// written through to the store, listening on loopback.
type serveStack struct {
	dir string
	m   *jobs.Manager
	srv *sweep.Server
	tap *searchTap
	lb  *loopback

	hotBodies [][]byte
	// want is each hot request's in-process sweep.Eval answer, encoded
	// as the CLI's `eval -json` encodes it.
	want [][]byte
}

// startServe builds a stack and warms the hot set through HTTP, checking
// each answer against the in-process evaluation.
func startServe(cfg *config) (*serveStack, error) {
	dir, err := os.MkdirTemp(cfg.scratch, "serve-")
	if err != nil {
		return nil, err
	}
	m, err := jobs.Open(dir)
	if err != nil {
		return nil, err
	}
	st := &serveStack{dir: dir, m: m, srv: sweep.NewServer()}
	jobs.Attach(st.srv, m)
	st.tap = newSearchTap(m.Store(), nil, 0)
	st.srv.SearchCache().SetPersister(st.tap)
	if st.lb, err = listen(st.srv); err != nil {
		st.close()
		return nil, err
	}

	client := &http.Client{}
	defer client.CloseIdleConnections()
	for i, c := range hotCases {
		req := evalRequest(c, hotSeed(cfg.seed, i))
		body, err := json.Marshal(req)
		if err != nil {
			st.close()
			return nil, err
		}
		got, err := postEval(client, st.lb.url, body, 0, "warmup")
		if err != nil {
			st.close()
			return nil, fmt.Errorf("warming hot request %d: %w", i, err)
		}
		resp, err := sweep.Eval(req, nil)
		if err != nil {
			st.close()
			return nil, err
		}
		var want bytes.Buffer
		sweep.EncodeResponseJSON(&want, resp) // a bytes.Buffer write cannot fail
		if !bytes.Equal(got, want.Bytes()) {
			st.close()
			return nil, fmt.Errorf("hot request %d: HTTP answer differs from in-process sweep.Eval", i)
		}
		st.hotBodies = append(st.hotBodies, body)
		st.want = append(st.want, want.Bytes())
	}
	return st, nil
}

// close stops the listener and closes the store.
func (st *serveStack) close() {
	if st.lb != nil {
		st.lb.close()
	}
	st.m.Close()
	os.RemoveAll(st.dir)
}

// hotSeed is the mapper seed of hot request i; missSeed of the n-th miss.
// The two ranges never meet.
func hotSeed(seed int64, i int) int64    { return seed*1000 + int64(i) + 1 }
func missSeed(seed int64, n int64) int64 { return 1<<40 + seed<<20 + n }

// postEval sends one /v1/eval request and returns the body of a 200.
func postEval(client *http.Client, url string, body []byte, trace uint64, class string) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, url+"/v1/eval", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(traceHeader, strconv.FormatUint(trace, 10))
	req.Header.Set(classHeader, class)
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, out)
	}
	return out, nil
}

// servePhase is what the closed-loop clients measured in one phase.
type servePhase struct {
	hitMS, missMS []float64
	requests      int
	respBytes     int64
	elapsed       time.Duration
}

// add merges another phase's samples.
func (p *servePhase) add(o *servePhase) {
	p.hitMS = append(p.hitMS, o.hitMS...)
	p.missMS = append(p.missMS, o.missMS...)
	p.requests += o.requests
	p.respBytes += o.respBytes
	p.elapsed += o.elapsed
}

// drive runs cfg.workers closed-loop clients until the deadline: each
// sends its next request only after the previous answer arrived, a miss
// when the miss clock has one due and otherwise a random hot request.
// Every hit answer is compared with the in-process evaluation.
func (st *serveStack) drive(cfg *config, rep *report, rec *Recorder, deadline time.Time, phase int, misses *missClock) *servePhase {
	var mu sync.Mutex
	out := &servePhase{}
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < cfg.workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			base := &http.Transport{MaxIdleConnsPerHost: 1}
			defer base.CloseIdleConnections()
			var transport http.RoundTripper = base
			if rec != nil {
				transport = &timedTransport{rec: rec, inner: transport}
			}
			client := &http.Client{Transport: transport}
			rng := rand.New(rand.NewSource(cfg.seed*1009 + int64(phase*64+c)))
			var hits, missMS []float64
			var n int
			var bytesIn int64
			for time.Now().Before(deadline) {
				trace := rec.NewID()
				var body []byte
				class := "hit"
				hot := -1
				if k, ok := misses.take(); ok {
					class = "miss"
					req := evalRequest(missCases[int(k)%len(missCases)], missSeed(cfg.seed, k))
					body, _ = json.Marshal(req) // plain struct: cannot fail
				} else {
					hot = rng.Intn(len(hotCases))
					body = st.hotBodies[hot]
				}
				t0 := time.Now()
				got, err := postEval(client, st.lb.url, body, trace, class)
				d := ms(time.Since(t0))
				n++
				mu.Lock()
				switch {
				case err != nil:
					rep.fail("%s request: %v", class, err)
				case hot >= 0 && !bytes.Equal(got, st.want[hot]):
					rep.fail("hot request %d: HTTP answer differs from in-process sweep.Eval", hot)
				}
				mu.Unlock()
				bytesIn += int64(len(got))
				if hot >= 0 {
					hits = append(hits, d)
				} else {
					missMS = append(missMS, d)
				}
			}
			mu.Lock()
			out.hitMS = append(out.hitMS, hits...)
			out.missMS = append(out.missMS, missMS...)
			out.requests += n
			out.respBytes += bytesIn
			mu.Unlock()
		}()
	}
	wg.Wait()
	out.elapsed = time.Since(start)
	return out
}

// runServeMixed measures the long-lived service path: cfg.workers
// closed-loop clients against an in-process server sending memory-tier
// hits of the hot set, plus missRate fresh-seed misses a second that
// search and write through to the store. Set-up (server, store, hot-set
// warm-up and the in-process reference answers) runs three times.
func runServeMixed(cfg *config) (*report, error) {
	rep := newReport()
	setupS, st, err := timeSetup(3, func() (*serveStack, error) { return startServe(cfg) }, (*serveStack).close)
	if err != nil {
		return nil, err
	}
	defer st.close()
	rep.setE2E("setup_s", "s", setupS)
	c, _ := st.tap.snapshot()
	setCounters(rep, c, st.m.Store().Len(), 0)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	// Traced runs alternate untraced and traced quarters of the window,
	// so the tracing overhead compares like with like as the store and
	// cache grow.
	phases := 1
	var rec *Recorder
	if cfg.trace {
		phases, rec = 4, NewRecorder()
	}
	cache := st.srv.SearchCache()
	var u, t servePhase
	var counts workCounts
	var recs []searchRecord
	var tiers mapper.TierStats
	appends := 0
	start := time.Now()
	misses := &missClock{start: start}
	for p := 0; p < phases; p++ {
		end := start.Add(cfg.seconds * time.Duration(p+1) / time.Duration(phases))
		if p%2 == 0 {
			u.add(st.drive(cfg, rep, nil, end, p, misses))
			continue
		}
		tiers0, appends0 := cache.TierStats(), st.tap.appendCount()
		counts0, recs0 := st.tap.snapshot()
		st.tap.rec.Store(rec)
		st.lb.set(timedHandler(rec, st.srv))
		t.add(st.drive(cfg, rep, rec, end, p, misses))
		st.tap.rec.Store(nil)
		st.lb.set(st.srv)
		tiers1 := cache.TierStats()
		counts1, recs1 := st.tap.snapshot()
		counts1.sub(counts0)
		counts.add(counts1)
		recs = append(recs, recs1[len(recs0):]...)
		tiers.Hits += tiers1.Hits - tiers0.Hits
		tiers.Misses += tiers1.Misses - tiers0.Misses
		tiers.DiskHits += tiers1.DiskHits - tiers0.DiskHits
		appends += st.tap.appendCount() - appends0
	}
	runtime.ReadMemStats(&after)
	rep.attempted = u.requests + t.requests
	if len(u.missMS) == 0 || len(u.hitMS) == 0 || (cfg.trace && len(t.missMS) == 0) {
		return nil, errors.New("the window fit no hit or no miss; raise --seconds")
	}
	rep.setE2E("cold_ms", "ms", Median(u.missMS))
	rep.setE2E("warm_ms", "ms", Median(u.hitMS))
	rep.setE2E("warm_p90_ms", "ms", Quantile(u.hitMS, 0.9))
	rep.setE2E("ops_per_s", "1/s", float64(u.requests)/u.elapsed.Seconds())
	if !cfg.trace {
		return rep, nil
	}

	memDelta(rep, &before, &after)
	rep.setLayer("trace.overhead_pct", "%", overheadPct(u.hitMS, t.hitMS))
	var searches []Span
	for _, r := range recs {
		searches = append(searches, r.Span)
	}
	setSearchLayers(rep, counts, len(t.missMS), searches)
	rep.setLayer("mapper.cache_hits", "count", float64(tiers.Hits))
	rep.setLayer("mapper.cache_misses", "count", float64(tiers.Misses))
	rep.setLayer("mapper.disk_hits", "count", float64(tiers.DiskHits))
	rep.setLayer("http.requests", "count", float64(t.requests))
	rep.setLayer("http.resp_bytes_mean", "B", float64(t.respBytes)/float64(t.requests))
	rep.setLayer("store.appends", "count", float64(appends))
	rep.setLayer("store.len", "count", float64(st.m.Store().Len()))
	rep.setLayer("store.segments", "count", float64(st.m.Store().Segments()))
	appendUS := durationsMS(rec.Named("store.append"))
	for i := range appendUS {
		appendUS[i] *= 1000
	}
	rep.setLayer("store.append_us_p50", "us", Median(appendUS))

	// Handler self time: every search runs inside exactly one miss
	// handler, so a request's handler time minus its searches is the
	// engine and HTTP-layer work around them (decode, architecture
	// build, key fingerprinting, CloneFor, encode).
	handlers := append(rec.Named("sweep.handler.hit"), rec.Named("sweep.handler.miss")...)
	var handlerMS, searchMS float64
	for _, s := range handlers {
		handlerMS += ms(s.Dur())
	}
	for _, s := range searches {
		searchMS += ms(s.Dur())
	}
	rep.setLayer("sweep.self_ms", "ms", (handlerMS-searchMS)/float64(len(handlers)))
	hitHandler := rec.Named("sweep.handler.hit")
	rep.setLayer("sweep.handler_hit_p50_ms", "ms", Median(durationsMS(hitHandler)))
	rep.setLayer("sweep.handler_miss_p50_ms", "ms", Median(durationsMS(rec.Named("sweep.handler.miss"))))
	rtt := rec.Named("http.rtt.hit")
	rep.setLayer("http.rtt_hit_p50_ms", "ms", Median(durationsMS(rtt)))
	byTrace := map[uint64]Span{}
	for _, s := range hitHandler {
		byTrace[s.Trace] = s
	}
	var overhead []float64
	for _, s := range rtt {
		if h, ok := byTrace[s.Trace]; ok {
			overhead = append(overhead, ms(s.Dur()-h.Dur()))
		}
	}
	rep.setLayer("http.overhead_hit_p50_ms", "ms", Median(overhead))

	ix, err := newIndex()
	if err != nil {
		return nil, err
	}
	if err := setModelLayers(rep, ix, recs); err != nil {
		return nil, err
	}
	return rep, writeTrace(cfg, rec, nil)
}
