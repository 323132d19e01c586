package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"photoloop/internal/explore"
	"photoloop/internal/jobs"
	"photoloop/internal/sweep"
	"photoloop/internal/workload"
)

// reexecEnv makes the test binary act as the photoloop CLI: the crash
// tests spawn it as a subprocess so they can SIGKILL a real process
// mid-job without building the command separately.
const reexecEnv = "PHOTOLOOP_TEST_CLI"

func TestMain(m *testing.M) {
	if os.Getenv(reexecEnv) == "1" {
		os.Exit(run(os.Args[1:]))
	}
	os.Exit(m.Run())
}

// crashNet is the crash tests' workload: small enough that one search is
// sub-second, big enough that searches dominate the per-point delay.
func crashNet() *workload.Network {
	return &workload.Network{
		Name: "crash-tiny",
		Layers: []workload.Layer{
			workload.NewConv("conv1", 1, 6, 8, 8, 8, 3, 3, 1, 1),
			workload.NewFC("fc", 1, 12, 32),
		},
	}
}

// crashSweepSpec pins Seed and SearchWorkers so every attempt — whatever
// its point-pool size — computes bit-identical points: 4 variants × 2
// objectives = 8 points.
func crashSweepSpec() sweep.Spec {
	return sweep.Spec{
		Name:          "crash-sweep",
		Base:          sweep.Base{Albireo: &sweep.AlbireoBase{}},
		Axes:          []sweep.Axis{{Param: "output_lanes", Values: []any{3, 5, 7, 9}}},
		Workloads:     []sweep.Workload{{Inline: crashNet()}},
		Objectives:    []string{"energy", "delay"},
		Budget:        60,
		Seed:          1,
		SearchWorkers: 2,
	}
}

func crashExploreSpec() explore.Spec {
	return explore.Spec{
		Name:          "crash-explore",
		Base:          sweep.Base{Albireo: &sweep.AlbireoBase{}},
		Axes:          []explore.Axis{{Param: "output_lanes", Values: []any{3, 5, 7, 9}}},
		Workload:      sweep.Workload{Inline: crashNet()},
		MapperBudget:  60,
		Seed:          1,
		SearchWorkers: 2,
	}
}

// writeSpecFile marshals a spec document into dir.
func writeSpecFile(t *testing.T, dir, name string, v any) string {
	t.Helper()
	buf, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, buf, 0o666); err != nil {
		t.Fatal(err)
	}
	return path
}

// cli builds a re-exec command for the photoloop CLI.
func cli(t *testing.T, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), reexecEnv+"=1")
	cmd.Stderr = os.Stderr
	return cmd
}

// startAndKillMidRun launches `jobs submit`, waits for the first streamed
// point, then SIGKILLs the process — a real crash, no deferred cleanup.
// It returns the job ID the subprocess printed.
func startAndKillMidRun(t *testing.T, storeDir string, args ...string) string {
	t.Helper()
	cmd := cli(t, args...)
	// Slow the run down so the kill lands mid-job deterministically.
	cmd.Env = append(cmd.Env, "PHOTOLOOP_JOB_POINT_DELAY=300ms")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("reading job id: %v", err)
	}
	id := strings.TrimPrefix(strings.TrimSpace(line), "job ")
	if id == "" || strings.Contains(id, " ") {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("unexpected submit output %q", line)
	}

	// Wait for the first point to land in the stream log, then kill.
	points := filepath.Join(storeDir, "jobs", id, "points.ndjson")
	deadline := time.Now().Add(60 * time.Second)
	for {
		if fi, err := os.Stat(points); err == nil && fi.Size() > 0 {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatal("job never streamed a point")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait() // reap; the error is the kill, expected

	if _, err := os.Stat(filepath.Join(storeDir, "jobs", id, "result.json")); err == nil {
		t.Fatal("job finished before the kill; the crash window closed")
	}
	return id
}

// readStatus parses a job's state file straight off disk.
func readStatus(t *testing.T, storeDir, id string) *jobs.Status {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join(storeDir, "jobs", id, "state.json"))
	if err != nil {
		t.Fatal(err)
	}
	var st jobs.Status
	if err := json.Unmarshal(buf, &st); err != nil {
		t.Fatal(err)
	}
	return &st
}

// TestCrashResumeByteIdentical is the durability acceptance test: a job
// SIGKILLed mid-run and resumed in a fresh process must produce a final
// artifact byte-identical to an uninterrupted run's, at every worker
// count — the store checkpoint makes the crash invisible in the output.
func TestCrashResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash test")
	}
	specDir := t.TempDir()
	sweepSpec := writeSpecFile(t, specDir, "sweep.json", crashSweepSpec())

	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			w := fmt.Sprint(workers)

			// Reference: the same job run uninterrupted in its own store.
			refDir := t.TempDir()
			if out, err := cli(t, "jobs", "submit", "-store", refDir, "-sweep", sweepSpec,
				"-workers", w, "-quiet").Output(); err != nil {
				t.Fatalf("reference run: %v (%s)", err, out)
			}

			// Crash run: kill mid-job, then resume in a fresh process.
			crashDir := t.TempDir()
			id := startAndKillMidRun(t, crashDir, "jobs", "submit", "-store", crashDir,
				"-sweep", sweepSpec, "-workers", w, "-quiet")
			if out, err := cli(t, "jobs", "resume", "-store", crashDir, "-id", id,
				"-workers", w, "-quiet").Output(); err != nil {
				t.Fatalf("resume: %v (%s)", err, out)
			}

			st := readStatus(t, crashDir, id)
			if st.State != jobs.StateDone {
				t.Fatalf("resumed state = %s (%s)", st.State, st.Error)
			}
			if st.Store == nil || st.Store.DiskHits == 0 {
				t.Errorf("resume served nothing from the checkpoint store: %+v", st.Store)
			}

			ref, err := os.ReadFile(filepath.Join(refDir, "jobs", id, "result.json"))
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(filepath.Join(crashDir, "jobs", id, "result.json"))
			if err != nil {
				t.Fatal(err)
			}
			if string(ref) != string(got) {
				t.Errorf("resumed artifact differs from uninterrupted run (%d vs %d bytes)", len(got), len(ref))
			}
		})
	}
}

// TestCrashResumeExplore runs the same kill-and-resume cycle through the
// explore engine: the frontier artifact must come out byte-identical.
func TestCrashResumeExplore(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash test")
	}
	specDir := t.TempDir()
	exploreSpec := writeSpecFile(t, specDir, "explore.json", crashExploreSpec())

	refDir := t.TempDir()
	if out, err := cli(t, "jobs", "submit", "-store", refDir, "-explore", exploreSpec,
		"-workers", "2", "-quiet").Output(); err != nil {
		t.Fatalf("reference run: %v (%s)", err, out)
	}

	crashDir := t.TempDir()
	id := startAndKillMidRun(t, crashDir, "jobs", "submit", "-store", crashDir,
		"-explore", exploreSpec, "-workers", "2", "-quiet")
	if out, err := cli(t, "jobs", "resume", "-store", crashDir, "-id", id,
		"-workers", "2", "-quiet").Output(); err != nil {
		t.Fatalf("resume: %v (%s)", err, out)
	}

	ref, err := os.ReadFile(filepath.Join(refDir, "jobs", id, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(crashDir, "jobs", id, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(ref) != string(got) {
		t.Errorf("resumed frontier differs from uninterrupted run (%d vs %d bytes)", len(got), len(ref))
	}
}

// TestCLIWarmRepeatZeroSearches re-runs a finished job through the CLI
// against its warm store and asserts the status reports zero computed
// searches — the store served everything.
func TestCLIWarmRepeatZeroSearches(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	specDir := t.TempDir()
	sweepSpec := writeSpecFile(t, specDir, "sweep.json", crashSweepSpec())
	storeDir := t.TempDir()
	out, err := cli(t, "jobs", "submit", "-store", storeDir, "-sweep", sweepSpec, "-quiet").Output()
	if err != nil {
		t.Fatalf("first run: %v (%s)", err, out)
	}
	id := strings.TrimPrefix(strings.TrimSpace(string(out)), "job ")
	first, err := os.ReadFile(filepath.Join(storeDir, "jobs", id, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	if out, err := cli(t, "jobs", "resume", "-store", storeDir, "-id", id, "-quiet").Output(); err != nil {
		t.Fatalf("warm repeat: %v (%s)", err, out)
	}
	st := readStatus(t, storeDir, id)
	if st.Store == nil || st.Store.Misses != 0 {
		t.Errorf("warm repeat computed searches: %+v", st.Store)
	}
	second, err := os.ReadFile(filepath.Join(storeDir, "jobs", id, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != string(second) {
		t.Error("warm repeat artifact differs")
	}
}
