package store

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"photoloop/internal/mapper"
	"photoloop/internal/retry"
)

// RemotePersister is the shared-nothing result channel of a remote shard
// worker: a mapper.Persister that holds no filesystem store. Completed
// searches batch up and POST back to the coordinator as CRC-framed
// records (EncodeFrames); the coordinator verifies each batch whole, then
// appends and serves the records as the bytes this process encoded, so
// the artifact-assembly path reads byte-for-byte what a single-process
// run would have written. Loads consult a
// bloom digest of the coordinator's keys (pulled once per lease) and
// fetch probable hits individually — a digest false positive costs one
// 404 before the worker recomputes, and every network failure on the
// read path is just a miss: integrity over availability, recomputation is
// bit-identical by construction.
//
// It is safe for concurrent use (mapper.Cache calls Load and Store from
// every search worker).
type RemotePersister struct {
	base   string
	client *http.Client
	// Retry bounds each HTTP call's retries (zero value = retry
	// defaults).
	Retry retry.Policy

	// OnFlush, when set, observes each upload about to happen (record
	// count) — worker diagnostics and crash-test synchronization.
	OnFlush func(n int)

	mu           sync.Mutex
	ctx          context.Context
	job          string
	digest       *KeyDigest
	pending      []Record
	pendingBytes int
	// local holds the results not yet acknowledged by the coordinator
	// (pending or mid-upload), so a worker's own fresh results serve
	// before they flush; uploaded ones are dropped, keeping a long-lived
	// worker's memory bounded by one batch.
	local map[mapper.Key]*mapper.Best
	stats RemoteStats
}

// RemoteStats counts a RemotePersister's traffic, by outcome.
type RemoteStats struct {
	// Uploaded is how many result records reached the coordinator.
	Uploaded int
	// Flushes is how many upload POSTs were made.
	Flushes int
	// WarmHits is how many Loads were served by a coordinator fetch.
	WarmHits int
	// Retries is how many individual HTTP attempts failed and were
	// retried across every leg (digest pull, fetch, upload).
	Retries int
}

// Upload batching thresholds: a batch flushes when it holds this many
// records or this many payload bytes, whichever comes first. Results are
// a few KB each, so the byte cap is the binding one only for unusually
// fat records.
const (
	remoteBatchRecords = 64
	remoteBatchBytes   = 1 << 20
)

// Answer limits of the result legs, each the largest valid answer: a
// digest of maxDigestBits behind its header, one record's payload, and an
// upload's accepted count or error envelope.
const (
	maxDigestAnswer = int64(len(digestMagic)) + 16 + maxDigestBits/8
	maxFetchAnswer  = maxPayloadLen
	maxUploadAnswer = 64 << 10
)

// uploadDelayEnv is a test hook mirroring PHOTOLOOP_JOB_POINT_DELAY: a
// sleep between announcing an upload (OnFlush) and POSTing it, widening
// the mid-upload crash window so tests can SIGKILL a worker between the
// two deterministically.
const uploadDelayEnv = "PHOTOLOOP_UPLOAD_DELAY"

// NewRemotePersister returns a persister that exchanges results with the
// coordinator at base (e.g. "http://host:8080"). A nil client uses the
// retry package's shared client, with a 30 s timeout.
func NewRemotePersister(base string, client *http.Client) *RemotePersister {
	return &RemotePersister{
		base:   strings.TrimRight(base, "/"),
		client: client,
		ctx:    context.Background(),
		local:  map[mapper.Key]*mapper.Best{},
	}
}

// Begin binds the persister to a job for the duration of a lease: it
// pulls the coordinator's warm-key digest so Loads can skip searches any
// worker already solved. A digest pull failure is not fatal — the worker
// just recomputes (and its uploads still dedupe coordinator-side); the
// context governs this and every later request until the next Begin.
func (r *RemotePersister) Begin(ctx context.Context, job string) error {
	var digest *KeyDigest
	body, err := r.call(ctx, http.MethodGet, "/v1/jobs/"+job+"/keys", nil, maxDigestAnswer)
	if err == nil {
		// A failed decode leaves digest nil: unknown warmth probes
		// nothing and recomputes everything.
		digest, _ = DecodeKeyDigest(body)
	}
	r.mu.Lock()
	r.ctx = ctx
	r.job = job
	r.digest = digest
	r.mu.Unlock()
	return nil
}

// Load implements mapper.Persister. Own not-yet-uploaded results serve
// locally; otherwise the digest gates a single-key fetch from the
// coordinator. Any failure along the way is a miss — the search
// recomputes the bit-identical result.
func (r *RemotePersister) Load(k mapper.Key) (*mapper.Best, bool) {
	r.mu.Lock()
	if b, ok := r.local[k]; ok {
		r.mu.Unlock()
		return b, true
	}
	ctx, job, digest := r.ctx, r.job, r.digest
	r.mu.Unlock()
	if job == "" || digest == nil || !digest.Has(k) {
		return nil, false
	}
	body, err := r.call(ctx, http.MethodGet, "/v1/jobs/"+job+"/results/"+keyHex(k), nil, maxFetchAnswer)
	if err != nil {
		return nil, false
	}
	b, err := DecodeBest(body)
	if err != nil {
		return nil, false
	}
	r.mu.Lock()
	r.stats.WarmHits++
	r.mu.Unlock()
	return b, true
}

// Store implements mapper.Persister: the result joins the pending batch,
// which uploads when it crosses the batching thresholds (a partial batch
// rides until Flush). A mid-batch upload failure is surfaced here so the
// cache records it as a disk fail, and the records stay pending for
// Flush to retry.
func (r *RemotePersister) Store(k mapper.Key, b *mapper.Best) error {
	payload := EncodeBest(b)
	r.mu.Lock()
	if _, ok := r.local[k]; ok {
		r.mu.Unlock()
		return nil
	}
	r.local[k] = b
	r.pending = append(r.pending, Record{Key: k, Payload: payload})
	r.pendingBytes += len(payload)
	full := len(r.pending) >= remoteBatchRecords || r.pendingBytes >= remoteBatchBytes
	ctx := r.ctx
	r.mu.Unlock()
	if !full {
		return nil
	}
	return r.Flush(ctx)
}

// Flush uploads every pending record and blocks until the coordinator
// acknowledges them (or retries are exhausted). Workers call it before
// Complete: results must be durable coordinator-side before the range is
// marked done, or a lost batch would leave holes the assembly run can
// only fill by recomputing. On failure the records stay pending.
func (r *RemotePersister) Flush(ctx context.Context) error {
	r.mu.Lock()
	if len(r.pending) == 0 {
		r.mu.Unlock()
		return nil
	}
	batch := r.pending
	batchBytes := r.pendingBytes
	r.pending = nil
	r.pendingBytes = 0
	job := r.job
	r.mu.Unlock()

	if r.OnFlush != nil {
		r.OnFlush(len(batch))
	}
	if delay, _ := time.ParseDuration(os.Getenv(uploadDelayEnv)); delay > 0 {
		time.Sleep(delay)
	}
	if _, err := r.call(ctx, http.MethodPost, "/v1/jobs/"+job+"/results", EncodeFrames(batch), maxUploadAnswer); err != nil {
		r.mu.Lock()
		r.pending = append(batch, r.pending...)
		r.pendingBytes += batchBytes
		r.mu.Unlock()
		return err
	}
	r.mu.Lock()
	r.stats.Flushes++
	r.stats.Uploaded += len(batch)
	for i := range batch {
		delete(r.local, batch[i].Key)
	}
	r.mu.Unlock()
	return nil
}

// Stats returns a snapshot of the persister's traffic counters.
func (r *RemotePersister) Stats() RemoteStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// call makes one coordinator request (a retry.Policy.Exchange under
// Retry), counts its retries and returns its answer. Any status but 200
// is a permanent error: the caller recomputes or keeps its batch pending.
func (r *RemotePersister) call(ctx context.Context, method, path string, body []byte, limit int64) ([]byte, error) {
	var answer []byte
	retries, err := r.Retry.Exchange(ctx, r.client, method, r.base+path, body, limit, func(status int, b []byte) error {
		if status != http.StatusOK {
			return retry.Permanent(fmt.Errorf("store: %s %s: status %d", method, path, status))
		}
		answer = b
		return nil
	})
	r.mu.Lock()
	r.stats.Retries += retries
	r.mu.Unlock()
	return answer, err
}

// keyHex renders a key as the 48-hex-digit path segment of the
// single-result fetch endpoint.
func keyHex(k mapper.Key) string {
	return fmt.Sprintf("%016x%016x%016x", k.Arch, k.Layer, k.Opts)
}

// ParseKeyHex parses the 48-hex-digit key form produced by the remote
// persister's fetch path (the coordinator's route handler uses it).
func ParseKeyHex(s string) (mapper.Key, bool) {
	if len(s) != 48 {
		return mapper.Key{}, false
	}
	var parts [3]uint64
	for i := range parts {
		var v uint64
		for _, c := range s[i*16 : (i+1)*16] {
			var d uint64
			switch {
			case c >= '0' && c <= '9':
				d = uint64(c - '0')
			case c >= 'a' && c <= 'f':
				d = uint64(c-'a') + 10
			default:
				return mapper.Key{}, false
			}
			v = v<<4 | d
		}
		parts[i] = v
	}
	return mapper.Key{Arch: parts[0], Layer: parts[1], Opts: parts[2]}, true
}
