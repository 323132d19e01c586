// Fault-injection harness for the shared-nothing shard protocol: a full
// sharded job where every worker↔coordinator HTTP call — lease,
// heartbeat, complete, result upload, warm-key pull — crosses a proxy
// that drops, delays, duplicates and truncates on a deterministic
// schedule. The external test package breaks the jobs→shard import cycle.
package shard_test

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"photoloop/internal/jobs"
	"photoloop/internal/retry"
	"photoloop/internal/shard"
	"photoloop/internal/store"
	"photoloop/internal/sweep"
	"photoloop/internal/testutil/flakyproxy"
	"photoloop/internal/workload"
)

// flakySweepJob is a four-point sweep (enough ranges to spread across
// four workers) with Seed and SearchWorkers pinned for bit-identical
// artifacts.
func flakySweepJob() jobs.Spec {
	return jobs.Spec{Sweep: &sweep.Spec{
		Name: "flaky-sweep",
		Base: sweep.Base{Albireo: &sweep.AlbireoBase{}},
		Axes: []sweep.Axis{{Param: "output_lanes", Values: []any{3, 5, 7, 9}}},
		Workloads: []sweep.Workload{{Inline: &workload.Network{
			Name: "tiny",
			Layers: []workload.Layer{
				workload.NewConv("conv1", 1, 6, 8, 8, 8, 3, 3, 1, 1),
				workload.NewFC("fc", 1, 12, 32),
			},
		}}},
		Budget:        60,
		Seed:          1,
		SearchWorkers: 2,
	}}
}

// runPlainJob produces the unsharded reference artifact.
func runPlainJob(t *testing.T, sp jobs.Spec) []byte {
	t.Helper()
	m, err := jobs.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	st, err := m.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(context.Background(), st.ID); err != nil {
		t.Fatal(err)
	}
	buf, err := m.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestShardedOverFlakyNetworkByteIdentical is the fault-injection
// acceptance test: at 1, 2 and 4 shared-nothing remote workers, with
// every HTTP call subject to drop/delay/duplicate/truncate faults, the
// job must complete with an artifact byte-identical to the unsharded
// reference, the coordinator must assemble it from pure store hits, and
// the retry counters must show the faults were actually ridden out.
func TestShardedOverFlakyNetworkByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full sharded runs over a fault proxy")
	}
	sp := flakySweepJob()
	want := runPlainJob(t, sp)

	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			m, err := jobs.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			m.Shard = shard.NewCoordinator()
			// Short TTL: a lease whose grant was dropped on the wire is
			// re-offered quickly instead of stalling the run.
			m.Shard.LeaseTTL = time.Second
			m.ShardLocal = false

			srv := sweep.NewServer()
			jobs.Attach(srv, m)
			proxy := flakyproxy.New(srv, flakyproxy.Options{
				FaultEvery:     3,
				MaxConsecutive: 2,
				Delay:          10 * time.Millisecond,
			})
			psrv := httptest.NewServer(proxy)
			defer psrv.Close()

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			// More tries than MaxConsecutive so a client-level call always
			// outlasts the worst fault burst.
			fast := retry.Policy{Tries: 6, Base: 5 * time.Millisecond}
			done := make(chan error, workers)
			clients := make([]*shard.Client, workers)
			persisters := make([]*store.RemotePersister, workers)
			for i := 0; i < workers; i++ {
				rp := store.NewRemotePersister(psrv.URL, nil)
				rp.Retry = fast
				cl := &shard.Client{Base: psrv.URL, Retry: fast}
				clients[i], persisters[i] = cl, rp
				go func() {
					done <- shard.Work(ctx, cl, rp, shard.WorkerOptions{Poll: 10 * time.Millisecond})
				}()
			}

			st, err := m.Submit(sp)
			if err != nil {
				t.Fatal(err)
			}
			st, err = m.Run(context.Background(), st.ID)
			if err != nil {
				t.Fatalf("sharded run over flaky network: %v", err)
			}
			got, err := m.Result(st.ID)
			if err != nil {
				t.Fatal(err)
			}
			cancel()
			for i := 0; i < workers; i++ {
				if err := <-done; err != nil {
					t.Errorf("worker: %v", err)
				}
			}

			if !bytes.Equal(got, want) {
				t.Error("flaky-network artifact differs from unsharded reference")
			}
			// Workers held no store: the coordinator's log was fed
			// entirely over the wire, and assembly was pure hits on it.
			if st.Store == nil || st.Store.Misses != 0 {
				t.Errorf("assembly recomputed searches: %+v", st.Store)
			}
			if st.Shards == nil || st.Shards.Ranges == 0 {
				t.Errorf("shard progress not recorded: %+v", st.Shards)
			}
			stats := proxy.Stats()
			if stats.Drops == 0 || stats.Delays == 0 || stats.Dups == 0 || stats.Truncates == 0 {
				t.Errorf("not every fault class fired: %+v", stats)
			}
			retries := 0
			for i := range clients {
				retries += clients[i].Retries() + persisters[i].Stats().Retries
			}
			if retries == 0 {
				t.Error("no retries recorded despite injected faults")
			}
			uploaded := 0
			for i := range persisters {
				uploaded += persisters[i].Stats().Uploaded
			}
			if uploaded == 0 {
				t.Error("no results travelled over the wire")
			}
		})
	}
}
