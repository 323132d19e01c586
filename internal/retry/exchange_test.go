package retry

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fast retries quickly, with enough attempts for every test's faults.
var fast = Policy{Tries: 4, Base: time.Millisecond}

// exchangeServer serves handler, counting its requests.
func exchangeServer(t *testing.T, handler func(call int, w http.ResponseWriter)) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler(int(calls.Add(1)), w)
	}))
	t.Cleanup(srv.Close)
	return srv, &calls
}

// TestExchangeRetries5xx: 502s then a 204 are ridden out, and each
// failed attempt is counted as a retry.
func TestExchangeRetries5xx(t *testing.T) {
	srv, calls := exchangeServer(t, func(call int, w http.ResponseWriter) {
		if call < 3 {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	var got int
	retries, err := fast.Exchange(context.Background(), nil, http.MethodPost, srv.URL, []byte("{}"), 1<<10, func(status int, _ []byte) error {
		got = status
		return nil
	})
	if err != nil || got != http.StatusNoContent {
		t.Fatalf("exchange through 502s: status %d, err %v", got, err)
	}
	if calls.Load() != 3 || retries != 2 {
		t.Fatalf("%d requests and %d retries, want 3 and 2", calls.Load(), retries)
	}
}

// TestExchange4xxIsNotRetried: a 409 reaches check, whose Permanent
// error ends the call with its message unchanged and no retry spent.
func TestExchange4xxIsNotRetried(t *testing.T) {
	const envelope = `{"error":"shard: lease L2 is not live"}`
	srv, calls := exchangeServer(t, func(_ int, w http.ResponseWriter) {
		w.WriteHeader(http.StatusConflict)
		w.Write([]byte(envelope))
	})
	retries, err := fast.Exchange(context.Background(), nil, http.MethodPost, srv.URL, nil, 1<<10, func(status int, answer []byte) error {
		return Permanent(fmt.Errorf("%d: %s", status, answer))
	})
	if want := "409: " + envelope; err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
	if calls.Load() != 1 || retries != 0 {
		t.Fatalf("%d requests and %d retries, want 1 and 0", calls.Load(), retries)
	}
}

// TestExchangeRetriesCutOffBody: an answer that ends before its declared
// length is a failed attempt, not an answer.
func TestExchangeRetriesCutOffBody(t *testing.T) {
	srv, _ := exchangeServer(t, func(call int, w http.ResponseWriter) {
		if call == 1 {
			// The server closes a connection whose handler wrote less
			// than its Content-Length.
			w.Header().Set("Content-Length", "100")
			w.Write([]byte("cut"))
			return
		}
		w.Write([]byte("whole"))
	})
	var got string
	retries, err := fast.Exchange(context.Background(), nil, http.MethodGet, srv.URL, nil, 1<<10, func(_ int, answer []byte) error {
		got = string(answer)
		return nil
	})
	if err != nil || got != "whole" || retries != 1 {
		t.Fatalf("answer %q, %d retries, err %v; want \"whole\", 1, nil", got, retries, err)
	}
}

// TestExchangeRetriesCheckError: a check error that is not Permanent
// (torn JSON) retries the call.
func TestExchangeRetriesCheckError(t *testing.T) {
	srv, _ := exchangeServer(t, func(call int, w http.ResponseWriter) {
		if call == 1 {
			w.Write([]byte(`{"id":`))
			return
		}
		w.Write([]byte(`{"id":"L1"}`))
	})
	var l struct {
		ID string `json:"id"`
	}
	retries, err := fast.Exchange(context.Background(), nil, http.MethodPost, srv.URL, nil, 1<<10, func(_ int, answer []byte) error {
		return json.Unmarshal(answer, &l)
	})
	if err != nil || l.ID != "L1" || retries != 1 {
		t.Fatalf("lease %q, %d retries, err %v; want L1, 1, nil", l.ID, retries, err)
	}
}

// TestExchangeOversizedAnswerNotRetried: an answer one byte past the
// limit fails at once, without reaching check.
func TestExchangeOversizedAnswerNotRetried(t *testing.T) {
	const limit = 1 << 10
	srv, calls := exchangeServer(t, func(_ int, w http.ResponseWriter) {
		w.Write(make([]byte, limit+1))
	})
	checked := false
	retries, err := fast.Exchange(context.Background(), nil, http.MethodGet, srv.URL, nil, limit, func(int, []byte) error {
		checked = true
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "answer exceeds 1024 bytes") {
		t.Fatalf("err = %v, want the limit error", err)
	}
	if checked || calls.Load() != 1 || retries != 0 {
		t.Fatalf("checked %v, %d requests, %d retries; want false, 1, 0", checked, calls.Load(), retries)
	}
}

// TestExchangeCutsEndlessAnswer: a server that never stops writing is
// cut off at the limit. The call fails on the limit, not on its context,
// and the server writes no more than the limit plus what the loopback
// socket buffers hold before its writes fail.
func TestExchangeCutsEndlessAnswer(t *testing.T) {
	const (
		limit = 1 << 20
		slack = 16 << 20
	)
	written := make(chan int64, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		chunk := make([]byte, 32<<10)
		var n int64
		for n < 1<<30 {
			if _, err := w.Write(chunk); err != nil {
				break
			}
			n += int64(len(chunk))
		}
		written <- n
	}))
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	_, err := fast.Exchange(ctx, nil, http.MethodGet, srv.URL, nil, limit, func(int, []byte) error { return nil })
	if err == nil || errors.Is(err, context.DeadlineExceeded) || !strings.Contains(err.Error(), "answer exceeds") {
		t.Fatalf("err = %v, want the limit error", err)
	}
	select {
	case n := <-written:
		if n > limit+slack {
			t.Fatalf("server wrote %d bytes, want at most %d", n, limit+slack)
		}
		t.Logf("server wrote %d bytes for a %d-byte limit", n, limit)
	case <-time.After(10 * time.Second):
		t.Fatal("server still writing 10 s after the exchange gave up")
	}
}
