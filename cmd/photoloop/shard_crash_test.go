package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"photoloop/internal/jobs"
)

// freePort reserves an ephemeral localhost port for a serve subprocess.
// The tiny close-to-bind race is acceptable in tests.
func freePort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// waitHTTP polls until the serve subprocess accepts connections.
func waitHTTP(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/jobs")
		if err == nil {
			resp.Body.Close()
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("serve never came up at %s: %v", base, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// referenceArtifact runs the spec unsharded in its own store and returns
// the job ID and result bytes every sharded variant must reproduce.
func referenceArtifact(t *testing.T, sweepSpec string) (string, []byte) {
	t.Helper()
	refDir := t.TempDir()
	out, err := cli(t, "jobs", "submit", "-store", refDir, "-sweep", sweepSpec, "-quiet").Output()
	if err != nil {
		t.Fatalf("reference run: %v (%s)", err, out)
	}
	id := strings.TrimPrefix(strings.TrimSpace(string(out)), "job ")
	ref, err := os.ReadFile(filepath.Join(refDir, "jobs", id, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	return id, ref
}

// startShardServe boots a serve coordinator that evaluates nothing itself
// and waits until it answers HTTP. Cleanup kills and reaps it.
func startShardServe(t *testing.T, storeDir, ttl string) (string, *exec.Cmd) {
	t.Helper()
	addr := freePort(t)
	base := "http://" + addr
	serve := cli(t, "serve", "-addr", addr, "-store", storeDir,
		"-shard", "-shard-local=false", "-shard-ttl", ttl)
	if err := serve.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		serve.Process.Kill()
		serve.Wait()
	})
	waitHTTP(t, base)
	return base, serve
}

// submitSweepHTTP posts the sweep spec file to a serve process and
// returns the job ID it assigned.
func submitSweepHTTP(t *testing.T, base, sweepSpec string) string {
	t.Helper()
	spec, err := os.ReadFile(sweepSpec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json",
		bytes.NewReader([]byte(`{"sweep":`+string(spec)+`}`)))
	if err != nil {
		t.Fatal(err)
	}
	var sub jobs.Status
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil || sub.ID == "" {
		t.Fatalf("submit -> %+v, %v", sub, err)
	}
	return sub.ID
}

// waitJobDone polls the job over HTTP until it finishes.
func waitJobDone(t *testing.T, base, id string) jobs.Status {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	var st jobs.Status
	for {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State == jobs.StateDone || st.State == jobs.StateFailed {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("sharded job never finished: %+v", st)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// assertSingleSegment is the on-disk shared-nothing proof: after a run
// fed entirely by remote workers, the coordinator's store directory must
// hold exactly one log file — its own.
func assertSingleSegment(t *testing.T, storeDir string) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(storeDir, "photoloop-store*.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Errorf("store has %d segments %v; remote workers must never write the directory", len(segs), segs)
	}
}

// startRemoteWorkerUntil starts a shared-nothing worker subprocess and
// returns once its stderr contains marker — the moment to SIGKILL it.
// env entries are appended to the worker's environment.
func startRemoteWorkerUntil(t *testing.T, base, marker string, env ...string) *exec.Cmd {
	t.Helper()
	w := cli(t, "worker", "-coordinator", base)
	w.Env = append(w.Env, env...)
	w.Stderr = nil // cli() wired os.Stderr; use a pipe instead
	pipe, err := w.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	hit := make(chan struct{})
	go func() {
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			if strings.Contains(sc.Text(), marker) {
				close(hit)
				return
			}
		}
	}()
	select {
	case <-hit:
	case <-time.After(60 * time.Second):
		w.Process.Kill()
		w.Wait()
		t.Fatalf("worker never reached %q", marker)
	}
	return w
}

// TestRemoteShardWorkersByteIdentical is the shared-nothing acceptance
// test with real processes: a serve coordinator and 1, 2 and 4 `worker`
// subprocesses that hold no store directory at all. Every result
// crosses the wire, the coordinator's directory stays single-segment, and
// the artifact is byte-identical to the unsharded reference.
func TestRemoteShardWorkersByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess shard test")
	}
	sweepSpec := writeSpecFile(t, t.TempDir(), "sweep.json", crashSweepSpec())
	refID, ref := referenceArtifact(t, sweepSpec)

	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			storeDir := t.TempDir()
			base, _ := startShardServe(t, storeDir, "10s")
			for i := 0; i < workers; i++ {
				w := cli(t, "worker", "-coordinator", base, "-quiet")
				if err := w.Start(); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() {
					w.Process.Kill()
					w.Wait()
				})
			}
			id := submitSweepHTTP(t, base, sweepSpec)
			if id != refID {
				t.Fatalf("job ID %s does not match reference %s", id, refID)
			}
			st := waitJobDone(t, base, id)
			if st.State != jobs.StateDone {
				t.Fatalf("sharded job failed: %s", st.Error)
			}
			if st.Store == nil || st.Store.Misses != 0 {
				t.Errorf("coordinator recomputed searches itself: %+v", st.Store)
			}
			got, err := os.ReadFile(filepath.Join(storeDir, "jobs", id, "result.json"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, ref) {
				t.Errorf("shared-nothing artifact differs from unsharded run (%d vs %d bytes)", len(got), len(ref))
			}
			assertSingleSegment(t, storeDir)
		})
	}
}

// TestRemoteWorkerKilledMidLease SIGKILLs a shared-nothing worker while
// it holds a lease (slowed by the point delay, so nothing has been
// uploaded yet). The lease expires, a second remote worker recomputes the
// range, and the artifact is still byte-identical — then a warm offline
// repeat proves every search landed in the coordinator's store.
func TestRemoteWorkerKilledMidLease(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash test")
	}
	sweepSpec := writeSpecFile(t, t.TempDir(), "sweep.json", crashSweepSpec())
	refID, ref := referenceArtifact(t, sweepSpec)

	storeDir := t.TempDir()
	base, serve := startShardServe(t, storeDir, "2s")
	id := submitSweepHTTP(t, base, sweepSpec)
	if id != refID {
		t.Fatalf("job ID %s does not match reference %s", id, refID)
	}

	// Worker A: slowed mid-evaluation; killed holding the lease with its
	// batched results still local — they die with the process.
	workerA := startRemoteWorkerUntil(t, base, "leased", "PHOTOLOOP_JOB_POINT_DELAY=1s")
	if err := workerA.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	workerA.Wait()

	workerB := cli(t, "worker", "-coordinator", base, "-quiet")
	if err := workerB.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		workerB.Process.Kill()
		workerB.Wait()
	}()

	st := waitJobDone(t, base, id)
	if st.State != jobs.StateDone {
		t.Fatalf("sharded job failed: %s", st.Error)
	}
	if st.Shards == nil || st.Shards.Reassigned == 0 {
		t.Errorf("status does not record the killed worker's reassignment: %+v", st.Shards)
	}
	if st.Store == nil || st.Store.Misses != 0 {
		t.Errorf("coordinator recomputed searches itself: %+v", st.Store)
	}
	got, err := os.ReadFile(filepath.Join(storeDir, "jobs", id, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Errorf("artifact differs from unsharded run after mid-lease kill (%d vs %d bytes)", len(got), len(ref))
	}
	assertSingleSegment(t, storeDir)

	// Offline warm repeat against the coordinator's directory: the
	// uploaded results are a complete checkpoint, zero searches recomputed.
	serve.Process.Kill()
	serve.Wait()
	if out, err := cli(t, "jobs", "resume", "-store", storeDir, "-id", id, "-quiet").Output(); err != nil {
		t.Fatalf("offline warm repeat: %v (%s)", err, out)
	}
	after := readStatus(t, storeDir, id)
	if after.Store == nil || after.Store.Misses != 0 {
		t.Errorf("warm repeat computed searches: %+v", after.Store)
	}
	repeat, err := os.ReadFile(filepath.Join(storeDir, "jobs", id, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(repeat, ref) {
		t.Error("warm repeat artifact differs")
	}
}

// TestRemoteWorkerKilledMidUpload SIGKILLs a shared-nothing worker in the
// upload window: its lease's searches are fully computed and announced,
// but the POST never happens (PHOTOLOOP_UPLOAD_DELAY holds the flush
// open). The coordinator must treat the silence like any other dead
// worker — lease expiry, reassignment, recompute — and the torn-away
// upload must cost nothing: byte-identical artifact, single segment.
func TestRemoteWorkerKilledMidUpload(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash test")
	}
	sweepSpec := writeSpecFile(t, t.TempDir(), "sweep.json", crashSweepSpec())
	refID, ref := referenceArtifact(t, sweepSpec)

	storeDir := t.TempDir()
	base, _ := startShardServe(t, storeDir, "2s")
	id := submitSweepHTTP(t, base, sweepSpec)
	if id != refID {
		t.Fatalf("job ID %s does not match reference %s", id, refID)
	}

	// Worker A: computes its lease at full speed, then stalls between
	// announcing the upload and POSTing it — the kill lands there.
	workerA := startRemoteWorkerUntil(t, base, "uploading", "PHOTOLOOP_UPLOAD_DELAY=30s")
	if err := workerA.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	workerA.Wait()

	workerB := cli(t, "worker", "-coordinator", base, "-quiet")
	if err := workerB.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		workerB.Process.Kill()
		workerB.Wait()
	}()

	st := waitJobDone(t, base, id)
	if st.State != jobs.StateDone {
		t.Fatalf("sharded job failed: %s", st.Error)
	}
	if st.Shards == nil || st.Shards.Reassigned == 0 {
		t.Errorf("status does not record the killed worker's reassignment: %+v", st.Shards)
	}
	if st.Store == nil || st.Store.Misses != 0 {
		t.Errorf("coordinator recomputed searches itself: %+v", st.Store)
	}
	got, err := os.ReadFile(filepath.Join(storeDir, "jobs", id, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Errorf("artifact differs from unsharded run after mid-upload kill (%d vs %d bytes)", len(got), len(ref))
	}
	assertSingleSegment(t, storeDir)
}
