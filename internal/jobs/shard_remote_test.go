package jobs

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"photoloop/internal/explore"
	"photoloop/internal/shard"
	"photoloop/internal/store"
	"photoloop/internal/sweep"
	"photoloop/internal/workload"
)

// remoteWorkerPool starts n shared-nothing workers against the manager's
// HTTP surface and returns their persisters plus a stop function that
// waits for clean exits.
func remoteWorkerPool(t *testing.T, url string, n int) ([]*store.RemotePersister, func()) {
	t.Helper()
	return remoteWorkers(t, url, n, nil)
}

// remoteWorkers is remoteWorkerPool with an OnLease observer shared by
// every worker (nil for none); calls may be concurrent.
func remoteWorkers(t *testing.T, url string, n int, onLease func(*shard.Lease)) ([]*store.RemotePersister, func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, n)
	persisters := make([]*store.RemotePersister, n)
	for i := 0; i < n; i++ {
		rp := store.NewRemotePersister(url, nil)
		persisters[i] = rp
		go func() {
			done <- shard.Work(ctx, &shard.Client{Base: url}, rp, shard.WorkerOptions{Poll: 10 * time.Millisecond, OnLease: onLease})
		}()
	}
	return persisters, func() {
		cancel()
		for i := 0; i < n; i++ {
			if err := <-done; err != nil {
				t.Errorf("remote worker: %v", err)
			}
		}
	}
}

// TestShardedRemoteNoSharedDir is the shared-nothing acceptance test at
// the jobs layer: workers hold no filesystem store at all — every result
// reaches the coordinator as an HTTP upload — and the assembled artifact
// is byte-identical to the single-process run at 1, 2 and 4 workers.
// The coordinator's store must stay single-segment: proof that no worker
// ever touched the directory. Work is conserved: every worker count
// leaves the same, pinned number of searches in the store, so the
// leases partition the grid without duplicating or losing any.
func TestShardedRemoteNoSharedDir(t *testing.T) {
	plain := openManager(t, t.TempDir())
	_, want := runJob(t, plain, sweepJob())

	// wantSearches is the number of distinct searches sweepJob runs (two
	// variants × tinyNet's two layers), pinned so a change that adds or
	// drops searches at every worker count alike fails too.
	const wantSearches = 4
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			m := openManager(t, t.TempDir())
			m.Shard = shard.NewCoordinator()
			m.ShardLocal = false
			srv := sweep.NewServer()
			Attach(srv, m)
			hs := httptest.NewServer(srv)
			defer hs.Close()

			persisters, stop := remoteWorkerPool(t, hs.URL, workers)
			st, got := runJob(t, m, sweepJob())
			stop()

			if !bytes.Equal(got, want) {
				t.Error("shared-nothing artifact differs from single-process artifact")
			}
			if st.Store == nil || st.Store.Misses != 0 {
				t.Errorf("coordinator recomputed searches: %+v", st.Store)
			}
			if seg := m.Store().Segments(); seg != 1 {
				t.Errorf("coordinator store spans %d segments; remote workers must not create segments", seg)
			}
			if n := m.Store().Len(); n != wantSearches {
				t.Errorf("store holds %d searches with %d workers, want %d (duplicated or lost work)", n, workers, wantSearches)
			}
			uploaded := 0
			for _, rp := range persisters {
				uploaded += rp.Stats().Uploaded
			}
			if uploaded == 0 {
				t.Error("no results travelled over the wire")
			}

			// Warm repeat with a fresh worker pool: the coordinator's
			// store already holds every search, so the coordinator
			// offers no range — the workers lease nothing and upload
			// nothing.
			var leased atomic.Int64
			persisters2, stop2 := remoteWorkers(t, hs.URL, workers, func(*shard.Lease) { leased.Add(1) })
			st2, err := m.Run(context.Background(), st.ID)
			if err != nil {
				t.Fatal(err)
			}
			stop2()
			if st2.Store == nil || st2.Store.Misses != 0 {
				t.Errorf("warm repeat recomputed searches: %+v", st2.Store)
			}
			rerun, err := m.Result(st2.ID)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rerun, want) {
				t.Error("warm repeat artifact differs")
			}
			uploaded2 := 0
			for _, rp := range persisters2 {
				uploaded2 += rp.Stats().Uploaded
			}
			if uploaded2 != 0 {
				t.Errorf("warm repeat uploaded %d records, want 0 (every search already coordinator-side)", uploaded2)
			}
			if n := leased.Load(); n != 0 {
				t.Errorf("warm repeat leased %d ranges, want 0 (every point already coordinator-side)", n)
			}
		})
	}
}

// TestShardedRemoteExploreNoSharedDir runs the multi-generation adaptive
// explore path shared-nothing: every generation's results cross the wire
// and the frontier must still match the single-process bytes.
func TestShardedRemoteExploreNoSharedDir(t *testing.T) {
	plain := openManager(t, t.TempDir())
	_, want := runJob(t, plain, adaptiveExploreJob())

	m := openManager(t, t.TempDir())
	m.Shard = shard.NewCoordinator()
	m.ShardLocal = false
	srv := sweep.NewServer()
	Attach(srv, m)
	hs := httptest.NewServer(srv)
	defer hs.Close()

	_, stop := remoteWorkerPool(t, hs.URL, 2)
	st, got := runJob(t, m, adaptiveExploreJob())
	stop()

	if !bytes.Equal(got, want) {
		t.Error("shared-nothing adaptive frontier differs from single-process artifact")
	}
	if st.Store == nil || st.Store.Misses != 0 {
		t.Errorf("coordinator recomputed searches: %+v", st.Store)
	}
	if seg := m.Store().Segments(); seg != 1 {
		t.Errorf("coordinator store spans %d segments", seg)
	}
}

// shardedRemoteManager opens a coordinator-only manager (no in-process
// worker) behind an HTTP server.
func shardedRemoteManager(t *testing.T) (*Manager, string) {
	t.Helper()
	m := openManager(t, t.TempDir())
	m.Shard = shard.NewCoordinator()
	m.ShardLocal = false
	srv := sweep.NewServer()
	Attach(srv, m)
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	return m, hs.URL
}

// TestShardedLeasesCarryResolvedSearchWorkers: a spec that leaves
// search_workers unset still shards without a single coordinator miss.
// The search's lane count is part of every search's cache key; its
// default is a constant, so remote workers compute exactly the keys the
// assembly run looks up, whatever their core count.
func TestShardedLeasesCarryResolvedSearchWorkers(t *testing.T) {
	unpinnedSweep := sweepJob()
	unpinnedSweep.Sweep.SearchWorkers = 0
	unpinnedExplore := adaptiveExploreJob()
	unpinnedExplore.Explore.SearchWorkers = 0
	for _, tc := range []struct {
		name string
		spec Spec
	}{
		{"sweep", unpinnedSweep},
		{"explore-adaptive", unpinnedExplore},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plain := openManager(t, t.TempDir())
			_, wantBytes := runJob(t, plain, tc.spec)

			m, url := shardedRemoteManager(t)
			var mu sync.Mutex
			var leases []*shard.Lease
			_, stop := remoteWorkers(t, url, 2, func(l *shard.Lease) {
				mu.Lock()
				leases = append(leases, l)
				mu.Unlock()
			})
			st, got := runJob(t, m, tc.spec)
			stop()

			if len(leases) == 0 {
				t.Fatal("no lease reached a worker")
			}
			if st.Store == nil || st.Store.Misses != 0 {
				t.Errorf("coordinator recomputed searches: %+v", st.Store)
			}
			if !bytes.Equal(got, wantBytes) {
				t.Error("sharded artifact differs from single-process artifact")
			}
		})
	}
}

// TestShardedExploreBeyondVariantCap shards an adaptive exploration whose
// lattice exceeds the sweep grid's 100,000-variant typo guard: workers
// decode candidate indices against the published spec's axes without
// materializing the grid. The range axes' ints cross the wire as JSON
// numbers (float64 on the worker) and must build the same architectures,
// or the coordinator would miss.
func TestShardedExploreBeyondVariantCap(t *testing.T) {
	spec := Spec{Explore: &explore.Spec{
		Name: "job-explore-big",
		Base: sweep.Base{Albireo: &sweep.AlbireoBase{}},
		Axes: []explore.Axis{
			{Param: "or_lanes", Min: ptr(1.0), Max: ptr(32.0)},
			{Param: "output_lanes", Min: ptr(1.0), Max: ptr(64.0)},
			{Param: "clusters", Min: ptr(1.0), Max: ptr(64.0)},
		},
		Workload:      sweep.Workload{Inline: tinyNet()},
		Objectives:    []string{"pj_per_mac", "area"},
		Strategy:      explore.StrategyAdaptive,
		Budget:        12,
		MapperBudget:  40,
		Seed:          7,
		SearchWorkers: 1,
	}}
	ssp, err := spec.Explore.SweepSpec()
	if err != nil {
		t.Fatal(err)
	}
	ev, err := sweep.NewEvaluator(ssp, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := ev.NumPoints(); n != 0 {
		t.Fatalf("NumPoints = %d; the fixture must exceed the variant cap", n)
	}
	plain := openManager(t, t.TempDir())
	_, want := runJob(t, plain, spec)

	m, url := shardedRemoteManager(t)
	persisters, stop := remoteWorkerPool(t, url, 2)
	st, got := runJob(t, m, spec)
	stop()

	if !bytes.Equal(got, want) {
		t.Error("sharded frontier differs from single-process artifact")
	}
	if st.Store == nil || st.Store.Misses != 0 {
		t.Errorf("coordinator recomputed searches: %+v", st.Store)
	}
	uploaded := 0
	for _, rp := range persisters {
		uploaded += rp.Stats().Uploaded
	}
	if uploaded == 0 {
		t.Error("no results travelled over the wire")
	}
}

func ptr(v float64) *float64 { return &v }

// TestShardedLeasesOnlyColdPoints: the coordinator leases only the points
// its store cannot already serve. Extending a finished sweep by one
// variant leases that variant's point alone; adding a workload that
// shares a layer shape leases the new workload's points, whose shared
// layer the workers fetch from the coordinator (partially warm points);
// and a fully warm job offers no range at all, so it completes with no
// worker attached. Every artifact is the single-process bytes and the
// coordinator computes nothing.
func TestShardedLeasesOnlyColdPoints(t *testing.T) {
	withVariants := func(name string, lanes ...any) Spec {
		sp := sweepJob()
		sp.Sweep.Name = name
		sp.Sweep.Axes[0].Values = lanes
		return sp
	}
	// shared repeats tinyNet's conv shape under another name and adds an
	// FC shape of its own.
	shared := &workload.Network{Name: "shared", Layers: []workload.Layer{
		workload.NewConv("conv1b", 1, 6, 8, 8, 8, 3, 3, 1, 1),
		workload.NewFC("fc2", 1, 24, 32),
	}}
	twoNets := func(name string) Spec {
		sp := withVariants(name, 3, 5, 9)
		sp.Sweep.Workloads = append(sp.Sweep.Workloads, sweep.Workload{Inline: shared})
		return sp
	}

	m, url := shardedRemoteManager(t)
	plain := openManager(t, t.TempDir())
	for _, tc := range []struct {
		spec     Spec
		workers  int
		tasks    []int64 // the leased point indices, in any order
		warmHits int     // searches the workers fetched from the coordinator
	}{
		{withVariants("cold-base", 3, 9), 2, []int64{0, 1}, 0},
		// Variant 5 sits between the stored 3 and 9: point 1.
		{withVariants("cold-superset", 3, 5, 9), 2, []int64{1}, 0},
		// (variant, workload) points; the shared network's are 1, 3, 5,
		// each with its conv layer already stored.
		{twoNets("cold-two-nets"), 2, []int64{1, 3, 5}, 3},
		// The same grid under a new name is fully warm: no worker.
		{twoNets("cold-rerun"), 0, nil, 0},
	} {
		name := tc.spec.Sweep.Name
		_, want := runJob(t, plain, tc.spec)
		var mu sync.Mutex
		var leased []int64
		persisters, stop := remoteWorkers(t, url, tc.workers, func(l *shard.Lease) {
			mu.Lock()
			leased = append(leased, l.Tasks...)
			mu.Unlock()
		})
		// A job that waits for a lease no worker takes must fail here,
		// not hang the test.
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		st, err := m.Submit(tc.spec)
		if err == nil {
			st, err = m.Run(ctx, st.ID)
		}
		cancel()
		stop()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := m.Result(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: sharded artifact differs from single-process artifact", name)
		}
		if st.Store == nil || st.Store.Misses != 0 {
			t.Errorf("%s: coordinator recomputed searches: %+v", name, st.Store)
		}
		slices.Sort(leased)
		if !slices.Equal(leased, tc.tasks) {
			t.Errorf("%s: leased points %v, want %v", name, leased, tc.tasks)
		}
		if tc.tasks == nil && (st.Shards == nil || st.Shards.Ranges != 0) {
			t.Errorf("%s: fully warm job offered ranges: %+v", name, st.Shards)
		}
		warm := 0
		for _, rp := range persisters {
			warm += rp.Stats().WarmHits
		}
		if warm != tc.warmHits {
			t.Errorf("%s: workers fetched %d warm searches, want %d", name, warm, tc.warmHits)
		}
	}
}
