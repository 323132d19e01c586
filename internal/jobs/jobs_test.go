package jobs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"photoloop/internal/explore"
	"photoloop/internal/sweep"
	"photoloop/internal/workload"
)

// tinyNet keeps job runs fast while exercising conv and FC shapes.
func tinyNet() *workload.Network {
	return &workload.Network{
		Name: "tiny",
		Layers: []workload.Layer{
			workload.NewConv("conv1", 1, 6, 8, 8, 8, 3, 3, 1, 1),
			workload.NewFC("fc", 1, 12, 32),
		},
	}
}

// sweepJob is a small two-variant sweep with Seed and SearchWorkers
// pinned, so results are reproducible across attempts and machines.
func sweepJob() Spec {
	return Spec{Sweep: &sweep.Spec{
		Name:          "job-sweep",
		Base:          sweep.Base{Albireo: &sweep.AlbireoBase{}},
		Axes:          []sweep.Axis{{Param: "output_lanes", Values: []any{3, 9}}},
		Workloads:     []sweep.Workload{{Inline: tinyNet()}},
		Budget:        60,
		Seed:          1,
		SearchWorkers: 2,
	}}
}

func exploreJob() Spec {
	return Spec{Explore: &explore.Spec{
		Name:          "job-explore",
		Base:          sweep.Base{Albireo: &sweep.AlbireoBase{}},
		Axes:          []explore.Axis{{Param: "output_lanes", Values: []any{3, 9}}},
		Workload:      sweep.Workload{Inline: tinyNet()},
		MapperBudget:  60,
		Seed:          1,
		SearchWorkers: 2,
	}}
}

func openManager(t *testing.T, dir string) *Manager {
	t.Helper()
	m, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

func TestSweepJobLifecycle(t *testing.T) {
	dir := t.TempDir()
	m := openManager(t, dir)
	st, err := m.Submit(sweepJob())
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StatePending || st.Kind != "sweep" || st.Name != "job-sweep" {
		t.Fatalf("submitted status = %+v", st)
	}
	if _, err := m.Result(st.ID); err == nil {
		t.Fatal("pending job has a result")
	}

	st, err = m.Run(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("state = %s (%s)", st.State, st.Error)
	}
	if st.Done != 2 || st.Total != 2 {
		t.Errorf("done/total = %d/%d, want 2/2", st.Done, st.Total)
	}
	if st.Store == nil || st.Store.Misses == 0 {
		t.Errorf("first run should compute searches: store = %+v", st.Store)
	}

	buf, err := m.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var res sweep.Result
	if err := json.Unmarshal(buf, &res); err != nil {
		t.Fatalf("result artifact does not parse: %v", err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("artifact has %d points", len(res.Points))
	}
	for i := range res.Points {
		if res.Points[i].Err != "" || res.Points[i].TotalPJ <= 0 {
			t.Errorf("point %d = %+v", i, res.Points[i])
		}
	}
	if res.CacheHits != 0 || res.CacheMisses != 0 {
		t.Errorf("artifact cache counters not zeroed: %d/%d", res.CacheHits, res.CacheMisses)
	}

	// The streamed point log holds every point as one JSON line.
	pf, err := os.Open(filepath.Join(dir, "jobs", st.ID, "points.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	lines := 0
	sc := bufio.NewScanner(pf)
	for sc.Scan() {
		var p sweep.Point
		if err := json.Unmarshal(sc.Bytes(), &p); err != nil {
			t.Fatalf("point line %d does not parse: %v", lines, err)
		}
		lines++
	}
	if lines != 2 {
		t.Errorf("point log has %d lines, want 2", lines)
	}
}

// TestWarmRepeatRunsZeroSearches is the store-equivalence acceptance
// check: re-running a finished job against the warm store must perform
// zero mapper searches — every layer search is a store or memory hit —
// and must rewrite a byte-identical artifact.
func TestWarmRepeatRunsZeroSearches(t *testing.T) {
	dir := t.TempDir()
	m := openManager(t, dir)
	st, err := m.Submit(sweepJob())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(context.Background(), st.ID); err != nil {
		t.Fatal(err)
	}
	first, err := m.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}

	// A fresh manager (fresh process, as far as caches are concerned).
	m.Close()
	m2 := openManager(t, dir)
	st2, err := m2.Run(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Resumes != 1 {
		t.Errorf("resumes = %d, want 1", st2.Resumes)
	}
	if st2.Store == nil {
		t.Fatal("no tier stats on status")
	}
	if st2.Store.Misses != 0 {
		t.Errorf("warm repeat computed %d searches, want 0 (stats %+v)", st2.Store.Misses, st2.Store)
	}
	if st2.Store.DiskHits == 0 {
		t.Errorf("warm repeat served nothing from the store: %+v", st2.Store)
	}
	second, err := m2.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Error("warm repeat artifact differs from the first run's")
	}
}

func TestSubmitIdempotentAndValidated(t *testing.T) {
	m := openManager(t, t.TempDir())
	a, err := m.Submit(sweepJob())
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Submit(sweepJob())
	if err != nil {
		t.Fatal(err)
	}
	if a.ID != b.ID {
		t.Errorf("equal specs got different IDs: %s vs %s", a.ID, b.ID)
	}
	c, err := m.Submit(exploreJob())
	if err != nil {
		t.Fatal(err)
	}
	if c.ID == a.ID {
		t.Error("different specs share an ID")
	}
	if _, err := m.Submit(Spec{}); err == nil {
		t.Error("empty spec accepted")
	}
	two := sweepJob()
	two.Explore = exploreJob().Explore
	if _, err := m.Submit(two); err == nil {
		t.Error("two-kind spec accepted")
	}
}

func TestExploreJobWarmRepeat(t *testing.T) {
	dir := t.TempDir()
	m := openManager(t, dir)
	st, err := m.Submit(exploreJob())
	if err != nil {
		t.Fatal(err)
	}
	st, err = m.Run(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.Kind != "explore" {
		t.Fatalf("status = %+v", st)
	}
	first, err := m.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var f explore.Frontier
	if err := json.Unmarshal(first, &f); err != nil {
		t.Fatalf("frontier artifact does not parse: %v", err)
	}
	if len(f.Points) == 0 || f.CacheHits != 0 || f.CacheMisses != 0 {
		t.Errorf("frontier = %d points, counters %d/%d", len(f.Points), f.CacheHits, f.CacheMisses)
	}

	m.Close()
	m2 := openManager(t, dir)
	st2, err := m2.Run(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Store.Misses != 0 {
		t.Errorf("warm explore repeat computed %d searches", st2.Store.Misses)
	}
	second, err := m2.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Error("warm explore repeat artifact differs")
	}
}

func TestInterruptedStateAndResume(t *testing.T) {
	m := openManager(t, t.TempDir())
	st, err := m.Submit(sweepJob())
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a crash: the state file says running, no live runner.
	st.State = StateRunning
	if err := m.writeState(st); err != nil {
		t.Fatal(err)
	}
	got, err := m.Status(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateInterrupted {
		t.Fatalf("state = %s, want %s", got.State, StateInterrupted)
	}
	// Resume runs it to completion.
	got, err = m.Run(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateDone || got.Resumes != 1 {
		t.Fatalf("resumed status = %+v", got)
	}
	list, err := m.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != st.ID || list[0].State != StateDone {
		t.Fatalf("list = %+v", list)
	}
}

// readStateFile parses a job's state.json straight off disk.
func readStateFile(dir, id string) (*Status, error) {
	buf, err := os.ReadFile(filepath.Join(dir, "jobs", id, "state.json"))
	if err != nil {
		return nil, err
	}
	var st Status
	if err := json.Unmarshal(buf, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// TestJobStateWrittenOnTransitions pins when state.json is written: mid-
// run, Status reports the live progress from memory while the file still
// holds the snapshot written when the run started; the run's end writes
// the final status.
func TestJobStateWrittenOnTransitions(t *testing.T) {
	dir := t.TempDir()
	m := openManager(t, dir)
	sp := sweepJob()
	sp.Sweep.Axes[0].Values = []any{3, 5, 7, 9}
	st, err := m.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	checked := false
	m.Progress = func(done, total int) {
		if done != total/2 {
			return
		}
		checked = true
		live, err := m.Status(st.ID)
		if err != nil {
			t.Error(err)
			return
		}
		if live.State != StateRunning || live.Done != done || live.Total != total {
			t.Errorf("live status at point %d/%d = %+v", done, total, live)
		}
		disk, err := readStateFile(dir, st.ID)
		if err != nil {
			t.Error(err)
			return
		}
		if disk.State != StateRunning || disk.Done != 0 || disk.Total != 0 {
			t.Errorf("state.json at point %d/%d = %+v, want the running snapshot with Done == 0", done, total, disk)
		}
	}
	final, err := m.Run(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !checked {
		t.Fatal("progress never reported the middle point")
	}
	if final.State != StateDone || final.Done != 4 || final.Total != 4 || final.Store == nil {
		t.Fatalf("final status = %+v", final)
	}
	disk, err := readStateFile(dir, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(disk, final) {
		t.Errorf("state.json after the run = %+v, want the final status %+v", disk, final)
	}
}
