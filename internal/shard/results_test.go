package shard

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"photoloop/internal/mapper"
	"photoloop/internal/mapping"
	"photoloop/internal/model"
	"photoloop/internal/retry"
	"photoloop/internal/store"
)

// testBest fabricates a search result with enough structure to exercise
// the codec (the store never validates semantics, only framing).
func testBest(rng *rand.Rand) *mapper.Best {
	return &mapper.Best{
		Mapping: &mapping.Mapping{Levels: make([]mapping.LevelMapping, 1+rng.Intn(3))},
		Result: &model.Result{
			Layer:       fmt.Sprintf("layer-%d", rng.Intn(1000)),
			MACs:        rng.Int63(),
			Cycles:      rng.Float64() * 1e6,
			Utilization: rng.Float64(),
			TotalPJ:     rng.Float64() * 1e9,
		},
		Evaluations: rng.Intn(500),
	}
}

func testKey(rng *rand.Rand) mapper.Key {
	return mapper.Key{Arch: rng.Uint64(), Layer: rng.Uint64(), Opts: rng.Uint64()}
}

// testRecord fabricates one wire record: a random key and the payload of
// a testBest.
func testRecord(rng *rand.Rand) store.Record {
	return store.Record{Key: testKey(rng), Payload: store.EncodeBest(testBest(rng))}
}

// resultServer opens a coordinator-side store and serves the result
// exchange over httptest.
func resultServer(t *testing.T) (*store.Store, *httptest.Server) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	mux := http.NewServeMux()
	AttachHTTP(mux.Handle, NewCoordinator(), st)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return st, srv
}

func postBody(t *testing.T, url string, body []byte) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return resp.StatusCode, sb.String()
}

// TestResultUploadIdempotent pins the retry-after-lost-200 contract:
// duplicate and out-of-order re-POSTs of the same frames are
// first-write-wins no-ops — the store neither grows nor changes.
func TestResultUploadIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	st, srv := resultServer(t)
	url := srv.URL + "/v1/jobs/j1/results"

	recs := make([]store.Record, 6)
	for i := range recs {
		recs[i] = testRecord(rng)
	}
	first := store.EncodeFrames(recs[:4])
	second := store.EncodeFrames(recs[4:])

	if code, body := postBody(t, url, first); code != http.StatusOK {
		t.Fatalf("first upload: %d %s", code, body)
	}
	if st.Len() != 4 {
		t.Fatalf("store holds %d keys after first upload, want 4", st.Len())
	}
	snapshot := func() map[mapper.Key][]byte {
		out := map[mapper.Key][]byte{}
		for _, rec := range recs {
			if p, ok := st.Payload(rec.Key); ok {
				out[rec.Key] = p
			}
		}
		if len(out) != st.Len() {
			t.Fatalf("%d of %d indexed keys served", len(out), st.Len())
		}
		return out
	}
	before := snapshot()

	// The retried duplicate (a lost 200 makes the client re-POST the
	// exact frames) must accept and change nothing.
	if code, body := postBody(t, url, first); code != http.StatusOK {
		t.Fatalf("duplicate upload rejected: %d %s", code, body)
	}
	if st.Len() != 4 {
		t.Fatalf("duplicate upload grew the store to %d keys", st.Len())
	}
	// Out of order: the second batch, then the first again, then an
	// overlapping mix of both.
	if code, _ := postBody(t, url, second); code != http.StatusOK {
		t.Fatal("second batch rejected")
	}
	if code, _ := postBody(t, url, first); code != http.StatusOK {
		t.Fatal("re-POST of first batch after second rejected")
	}
	mixed := store.EncodeFrames([]store.Record{recs[5], recs[0], recs[3]})
	if code, _ := postBody(t, url, mixed); code != http.StatusOK {
		t.Fatal("overlapping batch rejected")
	}
	if st.Len() != 6 {
		t.Fatalf("store holds %d keys, want 6", st.Len())
	}
	after := snapshot()
	for k, b := range before {
		if !bytes.Equal(after[k], b) {
			t.Fatalf("key %x changed across duplicate uploads", k)
		}
	}
}

// TestResultUploadTornRejectedWhole pins the torn-body contract: a
// truncated upload (any cut point) is rejected with 400 and appends
// nothing — never a partial batch.
func TestResultUploadTornRejectedWhole(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	st, srv := resultServer(t)
	url := srv.URL + "/v1/jobs/j1/results"

	body := store.EncodeFrames([]store.Record{testRecord(rng), testRecord(rng), testRecord(rng)})
	// Sample cut points densely enough to cross magic, count, header and
	// payload boundaries.
	for cut := 0; cut < len(body); cut += 7 {
		code, _ := postBody(t, url, body[:cut])
		if code != http.StatusBadRequest {
			t.Fatalf("truncation at %d/%d returned %d, want 400", cut, len(body), code)
		}
	}
	if st.Len() != 0 {
		t.Fatalf("torn uploads appended %d records", st.Len())
	}
	// Corrupted CRC: same whole-batch rejection.
	mut := append([]byte{}, body...)
	mut[len(mut)-1] ^= 0xff
	if code, _ := postBody(t, url, mut); code != http.StatusBadRequest {
		t.Fatalf("corrupted upload returned %d, want 400", code)
	}
	if st.Len() != 0 {
		t.Fatal("corrupted upload appended records")
	}
	// And the intact body still lands afterwards.
	if code, _ := postBody(t, url, body); code != http.StatusOK {
		t.Fatal("intact upload rejected after torn attempts")
	}
	if st.Len() != 3 {
		t.Fatalf("store holds %d keys, want 3", st.Len())
	}
}

// TestRemotePersisterRoundTrip drives the whole shared-nothing exchange
// in-process: one persister computes and uploads, a second persister
// (fresh process, no shared state) warms from the coordinator and serves
// bit-identical results.
func TestRemotePersisterRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	st, srv := resultServer(t)

	up := store.NewRemotePersister(srv.URL, nil)
	if err := up.Begin(context.Background(), "j1"); err != nil {
		t.Fatal(err)
	}
	keys := make([]mapper.Key, 10)
	bests := make([]*mapper.Best, 10)
	for i := range keys {
		keys[i], bests[i] = testKey(rng), testBest(rng)
		if err := up.Store(keys[i], bests[i]); err != nil {
			t.Fatal(err)
		}
		// Before flush, the persister's own results serve locally.
		if b, ok := up.Load(keys[i]); !ok || b != bests[i] {
			t.Fatalf("own result %d not served locally", i)
		}
	}
	if err := up.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 10 {
		t.Fatalf("coordinator store holds %d keys after flush, want 10", st.Len())
	}
	stats := up.Stats()
	if stats.Uploaded != 10 || stats.Flushes == 0 {
		t.Fatalf("uploader stats = %+v", stats)
	}

	down := store.NewRemotePersister(srv.URL, nil)
	if err := down.Begin(context.Background(), "j1"); err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		b, ok := down.Load(k)
		if !ok {
			t.Fatalf("warm key %d not served from coordinator", i)
		}
		if !bytes.Equal(store.EncodeBest(b), store.EncodeBest(bests[i])) {
			t.Fatalf("warm key %d not bit-identical", i)
		}
	}
	if s := down.Stats(); s.WarmHits != 10 {
		t.Fatalf("downloader stats = %+v, want 10 warm hits", s)
	}
	// Unknown keys miss without error (and without a fetch, thanks to
	// the digest).
	if _, ok := down.Load(testKey(rng)); ok {
		t.Fatal("absent key served")
	}
	if s := down.Stats(); s.WarmHits != 10 {
		t.Fatalf("stats after absent load = %+v", s)
	}
}

// TestRemotePersisterFlushFailureKeepsPending: a dead coordinator fails
// the flush but loses nothing — the records stay pending and land on
// the next flush once the coordinator is back.
func TestRemotePersisterFlushFailureKeepsPending(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	st, srv := resultServer(t)

	rp := store.NewRemotePersister(srv.URL, nil)
	rp.Retry = retry.Policy{Tries: 2, Base: time.Millisecond}
	if err := rp.Begin(context.Background(), "j1"); err != nil {
		t.Fatal(err)
	}
	k, b := testKey(rng), testBest(rng)
	if err := rp.Store(k, b); err != nil {
		t.Fatal(err)
	}
	srv.CloseClientConnections()
	srv.Close()
	if err := rp.Flush(context.Background()); err == nil {
		t.Fatal("flush against a dead coordinator succeeded")
	}
	if st.Len() != 0 {
		t.Fatal("records appeared despite failed flush")
	}

	// Coordinator comes back (new listener, same store).
	mux := http.NewServeMux()
	AttachHTTP(mux.Handle, NewCoordinator(), st)
	srv2 := httptest.NewServer(mux)
	defer srv2.Close()
	rp2 := store.NewRemotePersister(srv2.URL, nil)
	// Simulate the same worker process re-flushing: move is internal, so
	// re-store the record on the fresh persister instead.
	if err := rp2.Begin(context.Background(), "j1"); err != nil {
		t.Fatal(err)
	}
	if err := rp2.Store(k, b); err != nil {
		t.Fatal(err)
	}
	if err := rp2.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 1 {
		t.Fatalf("store holds %d keys after recovery flush", st.Len())
	}
}

// TestClientRetriesTransientFailures: a coordinator that 502s a few
// times then recovers must be ridden out by the client, with the
// retries observable on the counter; a 4xx must fail immediately.
func TestClientRetriesTransientFailures(t *testing.T) {
	var calls int
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs/j1/lease/L1/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		calls++
		if calls < 3 {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("POST /v1/jobs/j1/lease/L2/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusConflict)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	cl := &Client{Base: srv.URL, Retry: retry.Policy{Tries: 4, Base: time.Millisecond}}
	if err := cl.Heartbeat(context.Background(), "j1", "L1"); err != nil {
		t.Fatalf("heartbeat through 502s: %v", err)
	}
	if calls != 3 {
		t.Fatalf("server saw %d attempts, want 3", calls)
	}
	if cl.Retries() != 2 {
		t.Fatalf("Retries() = %d, want 2", cl.Retries())
	}
	// 409 = lease lost: permanent, no retries spent.
	before := cl.Retries()
	err := cl.Heartbeat(context.Background(), "j1", "L2")
	if err == nil {
		t.Fatal("heartbeat on a lost lease succeeded")
	}
	if want := "shard: /v1/jobs/j1/lease/L2/heartbeat: 409 Conflict"; err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
	if cl.Retries() != before {
		t.Fatal("client retried a 409")
	}
}

// TestResultFetchEndpoints covers the GET side: digest and single-key
// fetch, including 404 for absent keys and 400 for malformed ones.
func TestResultFetchEndpoints(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	st, srv := resultServer(t)
	k, b := testKey(rng), testBest(rng)
	if err := st.Store(k, b); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/v1/jobs/j1/keys")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("keys endpoint: %d", resp.StatusCode)
	}
	d, err := store.DecodeKeyDigest(buf.Bytes())
	if err != nil {
		t.Fatalf("digest body: %v", err)
	}
	if !d.Has(k) {
		t.Fatal("digest misses the stored key")
	}

	hex := fmt.Sprintf("%016x%016x%016x", k.Arch, k.Layer, k.Opts)
	resp, err = http.Get(srv.URL + "/v1/jobs/j1/results/" + hex)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fetch endpoint: %d", resp.StatusCode)
	}
	if !bytes.Equal(buf.Bytes(), store.EncodeBest(b)) {
		t.Fatal("fetched payload not bit-identical")
	}

	absent := fmt.Sprintf("%016x%016x%016x", rng.Uint64(), rng.Uint64(), rng.Uint64())
	if resp, err = http.Get(srv.URL + "/v1/jobs/j1/results/" + absent); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("absent key: %d, want 404", resp.StatusCode)
	}
	if resp, err = http.Get(srv.URL + "/v1/jobs/j1/results/nothex"); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	// The server's one error envelope, as every sweep route writes it.
	const malformed = `{"error":"shard: malformed result key \"nothex\""}` + "\n"
	if resp.StatusCode != http.StatusBadRequest || buf.String() != malformed || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("malformed key: %d %q (%s), want 400 %q", resp.StatusCode, buf.String(), resp.Header.Get("Content-Type"), malformed)
	}
}

// TestUploadedLogMatchesLocalStore pins the one record codec: results
// uploaded through POST /v1/jobs/{id}/results land in the coordinator's
// log as the same bytes a local Store.Store of the same bests in the same
// order writes, a fetch serves back exactly the uploaded payload, and
// both logs reopen clean. A reader polls the coordinator's store while
// the uploads append, so -race sees Append against Payload and Load.
func TestUploadedLogMatchesLocalStore(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	dirA, dirB := t.TempDir(), t.TempDir()
	a, err := store.Open(dirA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := store.Open(dirB)
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	AttachHTTP(mux.Handle, NewCoordinator(), a)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	// More records than one upload batch holds, so Store crosses a
	// mid-run flush and Flush sends the partial rest.
	keys := make([]mapper.Key, 70)
	bests := make([]*mapper.Best, len(keys))
	for i := range keys {
		keys[i], bests[i] = testKey(rng), testBest(rng)
	}
	stop := make(chan struct{})
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, k := range keys {
				if p, ok := a.Payload(k); ok {
					if _, ok := a.Load(k); !ok || len(p) == 0 {
						t.Error("indexed record failed to load")
					}
				}
			}
		}
	}()
	up := store.NewRemotePersister(srv.URL, nil)
	if err := up.Begin(context.Background(), "j1"); err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if err := up.Store(k, bests[i]); err != nil {
			t.Fatal(err)
		}
		if err := b.Store(k, bests[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := up.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	close(stop)
	<-polled
	if s := up.Stats(); s.Uploaded != len(keys) || s.Flushes < 2 {
		t.Fatalf("uploader stats = %+v, want %d records over at least 2 POSTs", s, len(keys))
	}

	for i, k := range keys {
		resp, err := http.Get(srv.URL + "/v1/jobs/j1/results/" + fmt.Sprintf("%016x%016x%016x", k.Arch, k.Layer, k.Opts))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !bytes.Equal(buf.Bytes(), store.EncodeBest(bests[i])) {
			t.Fatalf("fetch of record %d: status %d, payload not the uploaded bytes", i, resp.StatusCode)
		}
	}

	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	logA, err := os.ReadFile(filepath.Join(dirA, "photoloop-store.log"))
	if err != nil {
		t.Fatal(err)
	}
	logB, err := os.ReadFile(filepath.Join(dirB, "photoloop-store.log"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(logA, logB) {
		t.Fatalf("uploaded log (%d bytes) differs from the locally stored log (%d bytes)", len(logA), len(logB))
	}
	for _, dir := range []string{dirA, dirB} {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if st.Recovered() != 0 || st.Len() != len(keys) {
			t.Errorf("%s reopened with %d recovered bytes and %d keys, want 0 and %d", dir, st.Recovered(), st.Len(), len(keys))
		}
		st.Close()
	}
}
