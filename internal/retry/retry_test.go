package retry

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestDoSucceedsFirstTry(t *testing.T) {
	calls := 0
	err := Policy{}.do(context.Background(), func() error {
		calls++
		return nil
	})
	if err != nil {
		t.Fatalf("do: %v", err)
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1", calls)
	}
}

func TestDoRetriesTransient(t *testing.T) {
	calls := 0
	p := Policy{Tries: 5, Base: time.Millisecond}
	err := p.do(context.Background(), func() error {
		calls++
		if calls < 3 {
			return errors.New("blip")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("do: %v", err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
}

func TestDoExhaustsTries(t *testing.T) {
	calls := 0
	last := errors.New("still down")
	p := Policy{Tries: 3, Base: time.Millisecond}
	err := p.do(context.Background(), func() error {
		calls++
		return last
	})
	if !errors.Is(err, last) {
		t.Fatalf("err = %v, want %v", err, last)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
}

func TestDoStopsOnPermanent(t *testing.T) {
	calls := 0
	bad := errors.New("404 not found")
	p := Policy{Tries: 5, Base: time.Millisecond}
	err := p.do(context.Background(), func() error {
		calls++
		return Permanent(bad)
	})
	if calls != 1 {
		t.Fatalf("calls = %d, want 1", calls)
	}
	// The permanent marker is stripped on return: callers compare against
	// their own sentinel errors, not the wrapper.
	if err != bad {
		t.Fatalf("err = %#v, want the unwrapped %v", err, bad)
	}
}

func TestPermanentNilIsNil(t *testing.T) {
	if Permanent(nil) != nil {
		t.Fatalf("Permanent(nil) != nil")
	}
}

func TestDoHonorsContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	p := Policy{Tries: 10, Base: 50 * time.Millisecond}
	err := p.do(ctx, func() error {
		calls++
		cancel() // cancel during the first attempt; the backoff sleep must abort
		return errors.New("blip")
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1", calls)
	}
}

func TestDoHonorsPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	err := Policy{}.do(ctx, func() error { calls++; return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 0 {
		t.Fatalf("calls = %d, want 0", calls)
	}
}

func TestBackoffDoublesAndCaps(t *testing.T) {
	// Observe the sleep sequence indirectly: with Base=1ms, Max=4ms and 5
	// tries the total sleep is 1+2+4+4 = 11ms. An exact-timing assertion
	// would flake; assert only that the loop terminated and every retry
	// fired, which pins the attempt accounting.
	calls := 0
	p := Policy{Tries: 5, Base: time.Millisecond, Max: 4 * time.Millisecond}
	start := time.Now()
	err := p.do(context.Background(), func() error { calls++; return errors.New("down") })
	if err == nil {
		t.Fatalf("do succeeded, want failure")
	}
	if calls != 5 {
		t.Fatalf("calls = %d, want 5", calls)
	}
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Fatalf("elapsed %v, want >= ~11ms of backoff", elapsed)
	}
}
