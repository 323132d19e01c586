package jobs

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"photoloop/internal/explore"
	"photoloop/internal/shard"
	"photoloop/internal/sweep"
)

// runJob submits and runs a spec to completion, returning the status and
// the result artifact bytes.
func runJob(t *testing.T, m *Manager, sp Spec) (*Status, []byte) {
	t.Helper()
	st, err := m.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	st, err = m.Run(context.Background(), st.ID)
	if err != nil {
		t.Fatalf("run: %v (state %+v)", err, st)
	}
	if st.State != StateDone {
		t.Fatalf("state = %s (%s)", st.State, st.Error)
	}
	buf, err := m.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	return st, buf
}

// adaptiveExploreJob exercises the multi-generation PreEvaluate path: its
// 12-point space exceeds its budget, so the adaptive search runs, and the
// budget of 10 spans two adaptive generations (8 points, then 2), each
// offered as its own shard generation.
func adaptiveExploreJob() Spec {
	sp := exploreJob()
	sp.Explore.Name = "job-explore-adaptive"
	sp.Explore.Axes = []explore.Axis{{Param: "output_lanes", Min: ptr(2), Max: ptr(13)}}
	sp.Explore.Budget = 10
	return sp
}

// fidelityExploreJob trades pJ/MAC against the analog accuracy loss, so
// the sharded path also has to reproduce the fidelity post-pass (which
// runs only in the assembling process, never on the workers).
func fidelityExploreJob() Spec {
	sp := exploreJob()
	sp.Explore.Name = "job-explore-fidelity"
	sp.Explore.Objectives = []string{"pj_per_mac", "accuracy"}
	return sp
}

// TestShardedRunsByteIdentical pins the tentpole invariant: a job run
// through the coordinator (local worker loop warming the store, artifact
// assembled from it) produces the same bytes as the plain single-process
// path, for sweeps and for both explore strategies.
func TestShardedRunsByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec Spec
	}{
		{"sweep", sweepJob()},
		{"explore-grid", exploreJob()},
		{"explore-adaptive", adaptiveExploreJob()},
		{"explore-fidelity", fidelityExploreJob()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plain := openManager(t, t.TempDir())
			_, want := runJob(t, plain, tc.spec)

			m := openManager(t, t.TempDir())
			m.Shard = shard.NewCoordinator()
			st, got := runJob(t, m, tc.spec)
			if !bytes.Equal(got, want) {
				t.Errorf("sharded artifact differs from single-process artifact:\n%s\n----\n%s", got, want)
			}
			if st.Shards == nil || st.Shards.Done != st.Shards.Ranges || st.Shards.Ranges == 0 {
				t.Errorf("sharded run's shard progress = %+v", st.Shards)
			}
			// The assembly pass computes nothing even on a cold store:
			// the worker loop's own cache did the computing, and the
			// coordinator reads it all back as disk hits.
			if st.Store == nil || st.Store.Misses != 0 || st.Store.DiskHits == 0 {
				t.Errorf("sharded assembly should be pure store hits: %+v", st.Store)
			}

			// A warm re-run assembles everything from the store: zero
			// searches, identical bytes.
			st, err := m.Run(context.Background(), st.ID)
			if err != nil {
				t.Fatal(err)
			}
			if st.Store == nil || st.Store.Misses != 0 {
				t.Errorf("warm sharded re-run recomputed searches: %+v", st.Store)
			}
			rerun, err := m.Result(st.ID)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rerun, want) {
				t.Error("warm sharded re-run artifact differs")
			}
		})
	}
}

// TestShardedFidelityExploreRemoteWorkers is the remote-worker leg for
// the accuracy objective: workers only warm the store with mapper
// searches, the coordinator alone runs the fidelity rollup during
// assembly — so the frontier (including its effective-bits annotations)
// must be byte-identical to the single-process run at every worker count.
func TestShardedFidelityExploreRemoteWorkers(t *testing.T) {
	plain := openManager(t, t.TempDir())
	_, want := runJob(t, plain, fidelityExploreJob())
	if !bytes.Contains(want, []byte(`"effective_bits"`)) {
		t.Fatalf("fidelity frontier carries no effective_bits annotation:\n%s", want)
	}

	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			m := openManager(t, t.TempDir())
			m.Shard = shard.NewCoordinator()
			m.ShardLocal = false
			srv := sweep.NewServer()
			Attach(srv, m)
			hs := httptest.NewServer(srv)
			defer hs.Close()

			_, stop := remoteWorkerPool(t, hs.URL, workers)
			st, got := runJob(t, m, fidelityExploreJob())
			stop()
			if !bytes.Equal(got, want) {
				t.Error("remote-worker fidelity frontier differs from single-process artifact")
			}
			if st.Store == nil || st.Store.Misses != 0 {
				t.Errorf("coordinator recomputed searches: %+v", st.Store)
			}
		})
	}
}

// TestShardingGatesOnRunnableSweeps pins where the sharding gate lives:
// a sweep that Run rejects — an axis with no values — fails with Run's
// own error whether or not sharding is on.
func TestShardingGatesOnRunnableSweeps(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	empty := sweepJob()
	empty.Sweep.Axes = []sweep.Axis{{Param: "output_lanes"}}
	_, want := sweep.Run(*empty.Sweep, sweep.Options{})
	if want == nil {
		t.Fatal("sweep.Run accepted an axis with no values")
	}
	for _, sharded := range []bool{false, true} {
		m := openManager(t, t.TempDir())
		if sharded {
			m.Shard = shard.NewCoordinator()
		}
		st, err := m.Submit(empty)
		if err != nil {
			t.Fatal(err)
		}
		st, err = m.Run(ctx, st.ID)
		if err == nil || err.Error() != want.Error() || st.State != StateFailed || st.Error != want.Error() {
			t.Errorf("sharded=%v: state %s, err %v; want failed with %q", sharded, st.State, err, want)
		}
	}
}

// TestShardedGridOverVariantCapRejectedBeforeOffer: a sharded explore
// grid past the sweep grid's 100,000-variant cap fails with the unsharded
// run's error before a single range is offered, so one job submission can
// neither materialize nor lease an unbounded lattice.
func TestShardedGridOverVariantCapRejectedBeforeOffer(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sp := Spec{Explore: &explore.Spec{
		Name: "job-explore-grid-over-cap",
		Base: sweep.Base{Albireo: &sweep.AlbireoBase{}},
		Axes: []explore.Axis{ // 40 × 50 × 51 = 102,000 points
			{Param: "or_lanes", Min: ptr(1), Max: ptr(40)},
			{Param: "output_lanes", Min: ptr(1), Max: ptr(50)},
			{Param: "clusters", Min: ptr(1), Max: ptr(51)},
		},
		Workload:      sweep.Workload{Inline: tinyNet()},
		Budget:        102000,
		SearchWorkers: 1,
	}}
	m := openManager(t, t.TempDir())
	m.Shard = shard.NewCoordinator()
	m.ShardLocal = true
	st, err := m.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	st, err = m.Run(ctx, st.ID)
	if err == nil || !strings.Contains(err.Error(), "axis grid exceeds 100000 variants") {
		t.Fatalf("err = %v, want the variant cap rejection", err)
	}
	if st.Shards != nil {
		t.Errorf("ranges were offered before the rejection: %+v", st.Shards)
	}
	if n := m.Store().Len(); n != 0 {
		t.Errorf("workers stored %d searches for a rejected grid", n)
	}
}
