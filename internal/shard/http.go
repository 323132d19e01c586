package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"

	"photoloop/internal/retry"
	"photoloop/internal/store"
	"photoloop/internal/sweep"
)

// maxUploadBytes bounds one result-upload POST body. The persister's
// batching keeps real uploads far below this; the cap only stops a
// corrupted length from buffering unbounded input.
const maxUploadBytes = 64 << 20

// maxLeaseAnswer bounds a coordinator answer on the lease legs; a lease
// carries its job's whole sweep spec.
const maxLeaseAnswer = 8 << 20

// AttachHTTP mounts the worker side of the protocol through the given
// mount function (a sweep.Server's Mount, in the serve command): the
// lease endpoints, which Client implements Coord over, and the
// shared-nothing result exchange, the coordinator half of
// store.RemotePersister, over the coordinator's store:
//
//	POST /v1/jobs/lease                               lease a range of any job (204: none)
//	POST /v1/jobs/{id}/lease                          lease a range of one job
//	POST /v1/jobs/{id}/lease/{lease}/heartbeat        keep a lease alive (409: lease lost)
//	POST /v1/jobs/{id}/lease/{lease}/complete         mark a range done
//	POST /v1/jobs/{id}/lease/{lease}/fail             hand a range back (body: {"error": ...})
//	GET  /v1/jobs/{id}/shards                         sharding progress
//	POST /v1/jobs/{id}/results                        upload a frame batch (store.EncodeFrames body)
//	GET  /v1/jobs/{id}/keys                           warm-key bloom digest (store.KeyDigest body)
//	GET  /v1/jobs/{id}/results/{key}                  fetch one result (its stored EncodeBest payload; 404: absent)
//
// Clients keep using POST /v1/jobs unchanged.
//
// Records are content-addressed, so the store is job-agnostic: the {id}
// path segment keeps the result routes under the job tree, but an upload
// is valid whatever job produced it, and duplicate or out-of-order
// uploads deduplicate first-write-wins in the coordinator's single log.
// An upload is verified whole, then its records are appended and later
// served as the bytes the computing process encoded; the coordinator
// never re-encodes a result. A batch that fails to decode whole — bad
// magic, torn record, CRC mismatch, non-canonical payload, trailing
// bytes — is rejected with 400 and nothing is appended: a truncated POST
// can never land partially.
func AttachHTTP(mount func(pattern string, h http.Handler), c *Coordinator, st *store.Store) {
	writeJSON := func(w http.ResponseWriter, code int, v any) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		json.NewEncoder(w).Encode(v)
	}
	lease := func(w http.ResponseWriter, job string) {
		l, err := c.Lease(job)
		if err != nil {
			sweep.WriteHTTPError(w, http.StatusNotFound, err)
			return
		}
		if l == nil {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		writeJSON(w, http.StatusOK, l)
	}
	mount("POST /v1/jobs/lease", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		lease(w, "")
	}))
	mount("POST /v1/jobs/{id}/lease", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		lease(w, r.PathValue("id"))
	}))
	mount("POST /v1/jobs/{id}/lease/{lease}/heartbeat", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if err := c.Heartbeat(r.PathValue("id"), r.PathValue("lease")); err != nil {
			sweep.WriteHTTPError(w, http.StatusConflict, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	mount("POST /v1/jobs/{id}/lease/{lease}/complete", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if err := c.Complete(r.PathValue("id"), r.PathValue("lease")); err != nil {
			sweep.WriteHTTPError(w, http.StatusInternalServerError, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	mount("POST /v1/jobs/{id}/lease/{lease}/fail", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var body struct {
			Error string `json:"error"`
		}
		json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&body)
		if err := c.Fail(r.PathValue("id"), r.PathValue("lease"), body.Error); err != nil {
			sweep.WriteHTTPError(w, http.StatusInternalServerError, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	mount("GET /v1/jobs/{id}/shards", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		p, ok := c.Progress(r.PathValue("id"))
		if !ok {
			sweep.WriteHTTPError(w, http.StatusNotFound, fmt.Errorf("shard: job %s not published", r.PathValue("id")))
			return
		}
		writeJSON(w, http.StatusOK, p)
	}))
	mount("POST /v1/jobs/{id}/results", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(io.LimitReader(r.Body, maxUploadBytes+1))
		if err != nil {
			sweep.WriteHTTPError(w, http.StatusBadRequest, fmt.Errorf("shard: reading upload: %w", err))
			return
		}
		if len(body) > maxUploadBytes {
			sweep.WriteHTTPError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("shard: upload exceeds %d bytes", maxUploadBytes))
			return
		}
		recs, err := store.DecodeFrames(body)
		if err != nil {
			sweep.WriteHTTPError(w, http.StatusBadRequest, err)
			return
		}
		// First-write-wins: a key already present is a no-op, so the
		// retried upload after a lost 200 appends nothing twice, and a disk
		// failure mid-batch leaves a prefix that the retry dedupes.
		if err := st.Append(recs...); err != nil {
			sweep.WriteHTTPError(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]int{"accepted": len(recs)})
	}))
	mount("GET /v1/jobs/{id}/keys", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(st.Digest().Encode())
	}))
	mount("GET /v1/jobs/{id}/results/{key}", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		k, ok := store.ParseKeyHex(r.PathValue("key"))
		if !ok {
			sweep.WriteHTTPError(w, http.StatusBadRequest, fmt.Errorf("shard: malformed result key %q", r.PathValue("key")))
			return
		}
		payload, ok := st.Payload(k)
		if !ok {
			// A bloom false positive in the worker's digest: it recomputes.
			sweep.WriteHTTPError(w, http.StatusNotFound, fmt.Errorf("shard: result %s not in store", r.PathValue("key")))
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(payload)
	}))
}

// Client is the HTTP side of Coord: what `photoloop worker -coordinator
// URL` talks through. The zero HTTP client is usable; Base is the serve
// address ("http://host:port"). Every call is one retry.Policy.Exchange
// under Retry (zero value = the retry package defaults): transport
// errors, truncated responses and 5xx retry with exponential backoff, 4xx
// is a fact and fails immediately — notably heartbeat 409, which means
// the lease was reassigned and the range must be abandoned, not
// re-asked-for.
type Client struct {
	// Base is the coordinator address ("http://host:port").
	Base string
	// HTTP overrides the transport (nil = the retry package's shared
	// client, with a 30 s timeout).
	HTTP *http.Client
	// Retry bounds per-call retries (zero value = retry defaults).
	Retry retry.Policy

	retries atomic.Int64
}

// Retries reports how many individual HTTP attempts failed and were
// retried over the client's lifetime — the observable trace of riding
// out a flaky network.
func (cl *Client) Retries() int { return int(cl.retries.Load()) }

// post issues one coordinator call, decoding a JSON answer into out when
// the response carries one. A 4xx answer is a permanent error carrying
// the coordinator's message.
func (cl *Client) post(ctx context.Context, path string, body, out any) (int, error) {
	var buf []byte
	if body != nil {
		var err error
		if buf, err = json.Marshal(body); err != nil {
			return 0, err
		}
	}
	var code int
	retries, err := cl.Retry.Exchange(ctx, cl.HTTP, http.MethodPost, strings.TrimSuffix(cl.Base, "/")+path, buf, maxLeaseAnswer, func(status int, answer []byte) error {
		if status >= 400 {
			var e struct {
				Error string `json:"error"`
			}
			json.Unmarshal(answer, &e)
			if e.Error == "" {
				e.Error = fmt.Sprintf("%d %s", status, http.StatusText(status))
			}
			return retry.Permanent(fmt.Errorf("shard: %s: %s", path, e.Error))
		}
		if out != nil && status != http.StatusNoContent {
			if err := json.Unmarshal(answer, out); err != nil {
				return fmt.Errorf("shard: decoding %s response: %w", path, err) // torn body behind a proxy: retry
			}
		}
		code = status
		return nil
	})
	cl.retries.Add(int64(retries))
	return code, err
}

// Lease implements Coord: a 204 (no work available) returns (nil, nil),
// and the worker polls.
func (cl *Client) Lease(ctx context.Context, job string) (*Lease, error) {
	path := "/v1/jobs/lease"
	if job != "" {
		path = "/v1/jobs/" + job + "/lease"
	}
	var l Lease
	code, err := cl.post(ctx, path, nil, &l)
	if err != nil {
		return nil, err
	}
	if code == http.StatusNoContent {
		return nil, nil
	}
	return &l, nil
}

// Heartbeat implements Coord. A 409 means the lease was reassigned — the
// error makes the worker abandon the range.
func (cl *Client) Heartbeat(ctx context.Context, job, lease string) error {
	_, err := cl.post(ctx, "/v1/jobs/"+job+"/lease/"+lease+"/heartbeat", nil, nil)
	return err
}

// Complete implements Coord.
func (cl *Client) Complete(ctx context.Context, job, lease string) error {
	_, err := cl.post(ctx, "/v1/jobs/"+job+"/lease/"+lease+"/complete", nil, nil)
	return err
}

// Fail implements Coord.
func (cl *Client) Fail(ctx context.Context, job, lease, msg string) error {
	_, err := cl.post(ctx, "/v1/jobs/"+job+"/lease/"+lease+"/fail", map[string]string{"error": msg}, nil)
	return err
}
