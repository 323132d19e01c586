// Package retry is the one wire layer of the shard protocol: every
// over-the-wire leg (lease acquisition, heartbeats, result uploads,
// warm-key pulls, result fetches) is one Policy.Exchange. It exists so a
// coordinator blip — a dropped connection, a truncated response, a
// transient 5xx — degrades to a short retry instead of cancelling a
// worker's in-flight range.
//
// The policy is deliberately small: a fixed number of attempts with
// exponential backoff and no jitter, so tests driving a seeded fault
// schedule see deterministic retry behavior. Callers classify errors:
// wrapping one with Permanent stops the loop immediately (a 4xx response,
// a lost lease), anything else is presumed transient and retried until
// the attempts run out.
package retry

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"
)

// Defaults for a zero Policy: four attempts spanning roughly 700ms
// (100ms + 200ms + 400ms of backoff) — enough to ride out a connection
// reset or a coordinator GC pause, short enough that a worker holding a
// lease never backs off past its heartbeat deadline.
const (
	DefaultTries = 4
	DefaultBase  = 100 * time.Millisecond
	DefaultMax   = 2 * time.Second
)

// Policy bounds one retried operation.
type Policy struct {
	// Tries is the total number of attempts (default DefaultTries).
	Tries int
	// Base is the delay before the second attempt; it doubles per retry
	// (default DefaultBase).
	Base time.Duration
	// Max caps the per-retry backoff (default DefaultMax).
	Max time.Duration
}

// permanentError marks an error that must not be retried.
type permanentError struct{ err error }

func (p *permanentError) Error() string { return p.err.Error() }
func (p *permanentError) Unwrap() error { return p.err }

// Permanent wraps an error so Exchange stops retrying and returns it (unwrapped)
// immediately: the failure is a fact, not a blip — a 4xx status, a
// reassigned lease, a refused spec.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// do runs f until it succeeds, returns a Permanent error, exhausts the
// policy's attempts, or the context ends. The returned error is the last
// attempt's, unwrapped from any Permanent marker; a context cancellation
// between attempts returns the context's error.
func (p Policy) do(ctx context.Context, f func() error) error {
	tries := p.Tries
	if tries <= 0 {
		tries = DefaultTries
	}
	base := p.Base
	if base <= 0 {
		base = DefaultBase
	}
	max := p.Max
	if max <= 0 {
		max = DefaultMax
	}
	backoff := base
	var err error
	for attempt := 0; attempt < tries; attempt++ {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		err = f()
		if err == nil {
			return nil
		}
		var perm *permanentError
		if errors.As(err, &perm) {
			return perm.err
		}
		if attempt == tries-1 {
			break
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(backoff):
		}
		backoff *= 2
		if backoff > max {
			backoff = max
		}
	}
	return err
}

// defaultClient serves every Exchange given no client: one transport per
// process, with a timeout so a wedged coordinator cannot hang a call.
var defaultClient = &http.Client{Timeout: 30 * time.Second}

// Exchange makes one HTTP request under the policy and hands the answer
// to check. Transport errors, answers cut off mid-body and 5xx statuses
// retry. An answer longer than limit bytes fails at once, and reading
// stops there, so an endless body costs at most limit bytes. check sees
// every other complete answer: a nil return ends the call, a Permanent
// error ends it with that error, and any other error (torn JSON behind a
// proxy) retries it. A nil client is a shared one with a 30 s timeout.
// retries counts the attempts that failed and were tried again.
func (p Policy) Exchange(ctx context.Context, client *http.Client, method, url string, body []byte, limit int64, check func(status int, answer []byte) error) (retries int, err error) {
	if client == nil {
		client = defaultClient
	}
	attempts := 0
	err = p.do(ctx, func() error {
		attempts++
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, url, rd)
		if err != nil {
			return Permanent(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		// Closing an unread body drops the connection, which stops the
		// sender of an oversized answer.
		defer resp.Body.Close()
		answer, err := io.ReadAll(io.LimitReader(resp.Body, limit+1))
		switch {
		case err != nil:
			return err
		case int64(len(answer)) > limit:
			return Permanent(fmt.Errorf("%s %s: answer exceeds %d bytes", method, url, limit))
		case resp.StatusCode >= 500:
			return fmt.Errorf("%s %s: %s", method, url, resp.Status)
		}
		return check(resp.StatusCode, answer)
	})
	return max(attempts-1, 0), err
}
