// Package retry is the bounded retry/backoff layer shared by every
// over-the-wire leg of the shard protocol: lease acquisition, heartbeats,
// result uploads and warm-key pulls. It exists so a coordinator blip — a
// dropped connection, a truncated response, a transient 5xx — degrades to
// a short retry instead of cancelling a worker's in-flight range.
//
// The policy is deliberately small: a fixed number of attempts with
// exponential backoff and no jitter, so tests driving a seeded fault
// schedule see deterministic retry behavior. Callers classify errors:
// wrapping one with Permanent stops the loop immediately (a 4xx response,
// a lost lease), anything else is presumed transient and retried until
// the attempts run out.
package retry

import (
	"context"
	"errors"
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
	// OnRetry, when set, observes each failed attempt that will be
	// retried — diagnostics and test counters, never control flow.
	OnRetry func(err error)
}

// permanentError marks an error that must not be retried.
type permanentError struct{ err error }

func (p *permanentError) Error() string { return p.err.Error() }
func (p *permanentError) Unwrap() error { return p.err }

// Permanent wraps an error so Do stops retrying and returns it (unwrapped)
// immediately: the failure is a fact, not a blip — a 4xx status, a
// reassigned lease, a refused spec.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// Do runs f until it succeeds, returns a Permanent error, exhausts the
// policy's attempts, or the context ends. The returned error is the last
// attempt's, unwrapped from any Permanent marker; a context cancellation
// between attempts returns the context's error.
func (p Policy) Do(ctx context.Context, f func() error) error {
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
		if p.OnRetry != nil {
			p.OnRetry(err)
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
