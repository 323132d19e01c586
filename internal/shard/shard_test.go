package shard

import (
	"encoding/json"
	"testing"
	"time"
)

// fakeClock drives lease expiry deterministically.
type fakeClock struct{ t time.Time }

func (fc *fakeClock) now() time.Time          { return fc.t }
func (fc *fakeClock) advance(d time.Duration) { fc.t = fc.t.Add(d) }
func newTestCoordinator() (*Coordinator, *fakeClock) {
	fc := &fakeClock{t: time.Unix(1000, 0)}
	c := NewCoordinator()
	c.now = fc.now
	return c, fc
}

func tasks(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

func TestCoordinatorLeaseLifecycle(t *testing.T) {
	c, _ := newTestCoordinator()
	c.Ranges = 4
	c.Publish("j1", json.RawMessage(`{}`))
	done, err := c.Offer("j1", 0, tasks(8))
	if err != nil {
		t.Fatal(err)
	}

	var leases []*Lease
	covered := map[int64]bool{}
	for {
		l, err := c.Lease("")
		if err != nil {
			t.Fatal(err)
		}
		if l == nil {
			break
		}
		if l.Job != "j1" || l.Gen != 0 {
			t.Fatalf("unexpected lease %+v", l)
		}
		for _, task := range l.Tasks {
			if covered[task] {
				t.Fatalf("task %d leased twice", task)
			}
			covered[task] = true
		}
		leases = append(leases, l)
	}
	if len(leases) != 4 || len(covered) != 8 {
		t.Fatalf("%d leases covering %d tasks, want 4 covering 8", len(leases), len(covered))
	}

	for i, l := range leases {
		select {
		case <-done:
			t.Fatal("generation completed early")
		default:
		}
		if err := c.Complete(l.Job, l.ID); err != nil {
			t.Fatal(err)
		}
		_ = i
	}
	select {
	case <-done:
	default:
		t.Fatal("generation not completed after all ranges done")
	}
	if err := c.Err("j1"); err != nil {
		t.Fatal(err)
	}
}

func TestCoordinatorExpiryReassigns(t *testing.T) {
	c, fc := newTestCoordinator()
	c.Ranges = 1
	c.Publish("j1", json.RawMessage(`{}`))
	done, _ := c.Offer("j1", 0, tasks(3))

	l1, err := c.Lease("j1")
	if err != nil || l1 == nil {
		t.Fatalf("lease: %v %v", l1, err)
	}
	// While the lease is live nothing else is handed out, and heartbeats
	// extend it across would-be expiry.
	if l, _ := c.Lease("j1"); l != nil {
		t.Fatal("live range leased twice")
	}
	fc.advance(c.LeaseTTL * 2 / 3)
	if err := c.Heartbeat(l1.Job, l1.ID); err != nil {
		t.Fatal(err)
	}
	fc.advance(c.LeaseTTL * 2 / 3)
	if l, _ := c.Lease("j1"); l != nil {
		t.Fatal("heartbeated lease expired")
	}

	// The worker dies: no heartbeat, TTL passes, the range is re-leased.
	fc.advance(c.LeaseTTL + time.Second)
	l2, err := c.Lease("j1")
	if err != nil || l2 == nil {
		t.Fatalf("expired range not reassigned: %v %v", l2, err)
	}
	if l2.ID == l1.ID {
		t.Fatal("reassigned lease kept the dead lease's id")
	}
	// The dead worker's late messages are harmless: heartbeat errors
	// (it must stop), complete is a no-op.
	if err := c.Heartbeat(l1.Job, l1.ID); err == nil {
		t.Fatal("stale heartbeat accepted")
	}
	if err := c.Complete(l1.Job, l1.ID); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
		t.Fatal("stale complete finished the generation")
	default:
	}
	p, ok := c.Progress("j1")
	if !ok || p.Reassigned == 0 {
		t.Fatalf("progress %+v does not report the reassignment", p)
	}
	if err := c.Complete(l2.Job, l2.ID); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	default:
		t.Fatal("generation not completed")
	}
}

func TestCoordinatorPoisonRangeFailsGeneration(t *testing.T) {
	c, _ := newTestCoordinator()
	c.Ranges = 1
	c.Publish("j1", json.RawMessage(`{}`))
	done, _ := c.Offer("j1", 0, tasks(2))
	for i := 0; i < maxAttempts; i++ {
		l, err := c.Lease("j1")
		if err != nil || l == nil {
			t.Fatalf("attempt %d: %v %v", i, l, err)
		}
		c.Fail(l.Job, l.ID, "boom")
	}
	select {
	case <-done:
	default:
		t.Fatal("poison range did not fail the generation")
	}
	if err := c.Err("j1"); err == nil {
		t.Fatal("failed generation reports no error")
	}
}

func TestCoordinatorOfferReplacesGeneration(t *testing.T) {
	c, _ := newTestCoordinator()
	c.Publish("j1", json.RawMessage(`{}`))
	done0, _ := c.Offer("j1", 0, tasks(4))
	done1, _ := c.Offer("j1", 1, tasks(4))
	select {
	case <-done0:
	default:
		t.Fatal("replaced generation's channel not released")
	}
	l, err := c.Lease("j1")
	if err != nil || l == nil || l.Gen != 1 {
		t.Fatalf("lease after replacement: %+v %v", l, err)
	}
	c.Complete(l.Job, l.ID)
	for {
		l, _ := c.Lease("j1")
		if l == nil {
			break
		}
		c.Complete(l.Job, l.ID)
	}
	select {
	case <-done1:
	default:
		t.Fatal("generation 1 not completed")
	}
}
