package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"photoloop/internal/retry"
	"photoloop/internal/sweep"
)

// AttachHTTP mounts the coordinator's worker-facing endpoints through the
// given mount function (a sweep.Server's Mount, in the serve command):
//
//	POST /v1/jobs/lease                               lease a range of any job (204: none)
//	POST /v1/jobs/{id}/lease                          lease a range of one job
//	POST /v1/jobs/{id}/lease/{lease}/heartbeat        keep a lease alive (409: lease lost)
//	POST /v1/jobs/{id}/lease/{lease}/complete         mark a range done
//	POST /v1/jobs/{id}/lease/{lease}/fail             hand a range back (body: {"error": ...})
//	GET  /v1/jobs/{id}/shards                         sharding progress
//
// Clients keep using POST /v1/jobs unchanged; these endpoints are the
// worker side of the protocol, and Client implements Coord over them.
func AttachHTTP(mount func(pattern string, h http.Handler), c *Coordinator) {
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
}

// Client is the HTTP side of Coord: what `photoloop worker -coordinator
// URL` talks through. The zero HTTP client is usable; Base is the serve
// address ("http://host:port"). Every call retries under Retry (zero
// value = the retry package defaults): transport errors, truncated
// responses and 5xx retry with exponential backoff, 4xx is a fact and
// fails immediately — notably heartbeat 409, which means the lease was
// reassigned and the range must be abandoned, not re-asked-for.
type Client struct {
	// Base is the coordinator address ("http://host:port").
	Base string
	// HTTP overrides the transport (nil = http.DefaultClient).
	HTTP *http.Client
	// Retry bounds per-call retries (zero value = retry defaults).
	Retry retry.Policy

	mu      sync.Mutex
	retries int
}

func (cl *Client) client() *http.Client {
	if cl.HTTP != nil {
		return cl.HTTP
	}
	return http.DefaultClient
}

// Retries reports how many individual HTTP attempts failed and were
// retried over the client's lifetime — the observable trace of riding
// out a flaky network.
func (cl *Client) Retries() int {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.retries
}

// post issues one coordinator call under the retry policy, decoding a
// JSON body into out when the response carries one.
func (cl *Client) post(ctx context.Context, path string, body, out any) (int, error) {
	var buf []byte
	if body != nil {
		var err error
		if buf, err = json.Marshal(body); err != nil {
			return 0, err
		}
	}
	policy := cl.Retry
	inner := policy.OnRetry
	policy.OnRetry = func(err error) {
		cl.mu.Lock()
		cl.retries++
		cl.mu.Unlock()
		if inner != nil {
			inner(err)
		}
	}
	var code int
	err := policy.Do(ctx, func() error {
		var rd io.Reader
		if buf != nil {
			rd = bytes.NewReader(buf)
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, strings.TrimSuffix(cl.Base, "/")+path, rd)
		if err != nil {
			return retry.Permanent(err)
		}
		if buf != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := cl.client().Do(req)
		if err != nil {
			return err // transport blip: retry
		}
		defer resp.Body.Close()
		payload, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
		if err != nil {
			return err // truncated response: retry
		}
		switch {
		case resp.StatusCode >= 500:
			return fmt.Errorf("shard: %s: %s", path, resp.Status)
		case resp.StatusCode >= 400:
			var e struct {
				Error string `json:"error"`
			}
			json.Unmarshal(payload, &e)
			if e.Error == "" {
				e.Error = resp.Status
			}
			return retry.Permanent(&StatusError{Code: resp.StatusCode, Msg: fmt.Sprintf("shard: %s: %s", path, e.Error)})
		}
		if out != nil && resp.StatusCode != http.StatusNoContent {
			if err := json.Unmarshal(payload, out); err != nil {
				return fmt.Errorf("shard: decoding %s response: %w", path, err) // torn body behind a proxy: retry
			}
		}
		code = resp.StatusCode
		return nil
	})
	return code, err
}

// StatusError is a coordinator 4xx refusal, preserved so callers can
// branch on the code (a heartbeat 409 means the lease is lost).
type StatusError struct {
	// Code is the HTTP status code.
	Code int
	// Msg is the coordinator's error message.
	Msg string
}

// Error implements error.
func (e *StatusError) Error() string { return e.Msg }

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
