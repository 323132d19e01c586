// Package jobs runs sweeps and explorations as durable, resumable jobs
// over a persistent result store. A job is a submitted sweep or explore
// spec, content-addressed by its canonical JSON (equal specs are one
// job); running it evaluates the spec with a search cache write-through
// backed by the directory's store (package store), so every completed
// layer search is checkpointed the moment it finishes.
//
// Resumption is the store: a killed job lost nothing but the searches in
// flight, and resuming simply re-runs the spec — every search any prior
// attempt completed is served from disk bit-identically, so the resumed
// job's final artifact is byte-identical to an uninterrupted run's. The
// streamed point log and the result artifact are rewritten on each
// attempt; only the store is append-only.
//
// Layout under the store directory:
//
//	photoloop-store.log          the result store (package store)
//	photoloop-store.log.lock     its single-writer lock (pid of the holder)
//	jobs/<id>/spec.json          the submitted spec
//	jobs/<id>/state.json         status as of the last state transition (atomically replaced)
//	jobs/<id>/points.ndjson      one JSON point per line, completion order
//	jobs/<id>/result.json        final artifact (atomically written)
//
// A Manager with a Shard coordinator additionally fans each run's task
// grid out to worker processes (package shard) whose results upload into
// this store; see run.go and shard.go in this package.
//
// `photoloop jobs` drives a Manager from the command line and Attach
// serves the same engine over HTTP (POST /v1/jobs and friends).
package jobs

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"photoloop/internal/explore"
	"photoloop/internal/mapper"
	"photoloop/internal/shard"
	"photoloop/internal/store"
	"photoloop/internal/sweep"
)

// Spec is a job document: exactly one of Sweep or Explore.
type Spec struct {
	// Sweep declares a grid sweep job (see sweep.Spec).
	Sweep *sweep.Spec `json:"sweep,omitempty"`
	// Explore declares a Pareto-frontier exploration job (see
	// explore.Spec).
	Explore *explore.Spec `json:"explore,omitempty"`
}

// Job states reported in Status.State.
const (
	// StatePending: submitted, never run.
	StatePending = "pending"
	// StateRunning: a runner in this process is evaluating the job.
	StateRunning = "running"
	// StateInterrupted: the state file says running but no live runner
	// exists — the owning process died. Resume re-runs it from the store.
	StateInterrupted = "interrupted"
	// StateDone: the result artifact is written.
	StateDone = "done"
	// StateFailed: the last attempt errored (Status.Error says why).
	StateFailed = "failed"
)

// Status is a job's current state — what GET /v1/jobs/{id} and
// `photoloop jobs status` report. state.json holds it as of the last
// state transition (submit, run start, run end); progress in between is
// kept in the running process's memory, so a crashed attempt's file
// shows the state when that attempt started.
type Status struct {
	// ID is the job's content address (a hash of the canonical spec).
	ID string `json:"id"`
	// Kind is "sweep" or "explore".
	Kind string `json:"kind"`
	// Name echoes the spec's label.
	Name string `json:"name,omitempty"`
	// State is one of the State* constants.
	State string `json:"state"`
	// Done and Total count evaluated points of the current (or last)
	// attempt. Total is 0 until the run's first progress report.
	Done  int `json:"done"`
	Total int `json:"total,omitempty"`
	// Resumes counts re-runs after the first attempt.
	Resumes int `json:"resumes,omitempty"`
	// Error is the last attempt's failure (StateFailed only).
	Error string `json:"error,omitempty"`
	// Store breaks down the last completed attempt's search traffic by
	// cache tier. A re-run of a finished job against a warm store shows
	// Misses == 0: every search was served, none recomputed.
	Store *mapper.TierStats `json:"store,omitempty"`
	// Shards reports a sharded run's lease progress (only for jobs run
	// with a coordinator); the last generation's counts persist after
	// the run.
	Shards *shard.Progress `json:"shards,omitempty"`
}

// Manager owns one store directory: the shared result store plus the job
// records under jobs/. It is safe for concurrent use; each job runs at
// most once per process at a time.
type Manager struct {
	dir   string
	store *store.Store
	// Workers caps each job's point-level pool (0 = engine default).
	Workers int
	// Shard, when set, fans shardable jobs out across worker processes
	// through a range-lease coordinator: workers warm the shared store,
	// and the artifact is then assembled by the unchanged local path
	// (see run.go).
	Shard *shard.Coordinator
	// ShardLocal makes the coordinating process work its own leases (an
	// in-process worker loop), so a sharded job completes even when no
	// worker process ever attaches. Open sets it; tests and benchmarks
	// clear it to measure pure remote execution.
	ShardLocal bool
	// Progress, when set, mirrors each running job's progress reports
	// (done, total) — the CLI renders them; calls are serialized per job.
	// Like Status.Done and Total, they are not written to state.json.
	Progress func(done, total int)

	mu      sync.Mutex
	running map[string]*liveJob // job id -> its run in this process
}

// liveJob is a job running in this process.
type liveJob struct {
	done chan struct{} // closed when the run ends
	// st is the run's live status, nil until the run has written its
	// running state; the run mutates it, and readers copy it, under
	// Manager.mu.
	st *Status
}

// Open opens (creating if needed) the store directory and its job root.
func Open(dir string) (*Manager, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(dir, "jobs"), 0o777); err != nil {
		st.Close()
		return nil, fmt.Errorf("jobs: %w", err)
	}
	return &Manager{dir: dir, store: st, ShardLocal: true, running: make(map[string]*liveJob)}, nil
}

// Close closes the underlying store. Jobs still running keep evaluating
// but their write-throughs will fail (counted, never fatal); close after
// runs finish.
func (m *Manager) Close() error { return m.store.Close() }

// Store returns the manager's shared result store, for wiring the same
// persistence into sibling engines (the serve command backs the HTTP
// server's search cache with it).
func (m *Manager) Store() *store.Store { return m.store }

// kind classifies and validates a spec.
func (sp *Spec) kind() (kind, name string, err error) {
	switch {
	case sp.Sweep != nil && sp.Explore != nil:
		return "", "", fmt.Errorf("jobs: spec sets both sweep and explore")
	case sp.Sweep != nil:
		return "sweep", sp.Sweep.Name, nil
	case sp.Explore != nil:
		return "explore", sp.Explore.Name, nil
	}
	return "", "", fmt.Errorf("jobs: spec sets neither sweep nor explore")
}

// id content-addresses a spec: the FNV-64a of its canonical JSON (struct
// field order, sorted map keys). Equal specs get equal IDs, which is what
// makes submission idempotent and resumption a re-submit.
func (sp *Spec) id() (string, error) {
	buf, err := json.Marshal(sp)
	if err != nil {
		return "", fmt.Errorf("jobs: encoding spec: %w", err)
	}
	h := fnv.New64a()
	h.Write(buf)
	return fmt.Sprintf("j%016x", h.Sum64()), nil
}

// jobDir returns a job's record directory.
func (m *Manager) jobDir(id string) string { return filepath.Join(m.dir, "jobs", id) }

func (m *Manager) specPath(id string) string   { return filepath.Join(m.jobDir(id), "spec.json") }
func (m *Manager) statePath(id string) string  { return filepath.Join(m.jobDir(id), "state.json") }
func (m *Manager) pointsPath(id string) string { return filepath.Join(m.jobDir(id), "points.ndjson") }
func (m *Manager) resultPath(id string) string { return filepath.Join(m.jobDir(id), "result.json") }

// Submit registers a spec as a job and returns its status. Submission is
// idempotent: a spec already submitted (same content address) returns the
// existing job unchanged.
func (m *Manager) Submit(sp Spec) (*Status, error) {
	kind, name, err := sp.kind()
	if err != nil {
		return nil, err
	}
	id, err := sp.id()
	if err != nil {
		return nil, err
	}
	if st, err := m.Status(id); err == nil {
		return st, nil
	}
	dir := m.jobDir(id)
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("jobs: %w", err)
	}
	specBuf, err := json.MarshalIndent(&sp, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("jobs: encoding spec: %w", err)
	}
	if err := writeFileAtomic(m.specPath(id), append(specBuf, '\n')); err != nil {
		return nil, err
	}
	st := &Status{ID: id, Kind: kind, Name: name, State: StatePending}
	if err := m.writeState(st); err != nil {
		return nil, err
	}
	return st, nil
}

// Spec reads a submitted job's spec back.
func (m *Manager) Spec(id string) (*Spec, error) {
	f, err := os.Open(m.specPath(id))
	if err != nil {
		return nil, fmt.Errorf("jobs: job %s: %w", id, err)
	}
	defer f.Close()
	var sp Spec
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		return nil, fmt.Errorf("jobs: job %s: decoding spec: %w", id, err)
	}
	return &sp, nil
}

// Status reports a job's state: a copy of the live status for a job
// running in this process, otherwise its state file. A state file
// claiming "running" without a live runner in this process is reported
// as interrupted — the owning process died and the job is resumable.
func (m *Manager) Status(id string) (*Status, error) {
	if st := m.liveStatus(id); st != nil {
		return st, nil
	}
	buf, err := os.ReadFile(m.statePath(id))
	if err != nil {
		return nil, fmt.Errorf("jobs: job %s: %w", id, err)
	}
	var st Status
	if err := json.Unmarshal(buf, &st); err != nil {
		return nil, fmt.Errorf("jobs: job %s: decoding state: %w", id, err)
	}
	if st.State == StateRunning && m.runningChan(id) == nil {
		st.State = StateInterrupted
	}
	return &st, nil
}

// List returns every job's status, sorted by ID.
func (m *Manager) List() ([]*Status, error) {
	entries, err := os.ReadDir(filepath.Join(m.dir, "jobs"))
	if err != nil {
		return nil, fmt.Errorf("jobs: %w", err)
	}
	var out []*Status
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		st, err := m.Status(e.Name())
		if err != nil {
			continue // half-created record; skip rather than fail the listing
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// Result returns a finished job's artifact bytes (the same document
// `photoloop sweep`/`photoloop explore` would have written, with the
// run-dependent cache counters zeroed — see run.go).
func (m *Manager) Result(id string) ([]byte, error) {
	buf, err := os.ReadFile(m.resultPath(id))
	if err != nil {
		return nil, fmt.Errorf("jobs: job %s has no result (state: see status): %w", id, err)
	}
	return buf, nil
}

// runningChan returns the done channel of a live in-process run, or nil.
func (m *Manager) runningChan(id string) chan struct{} {
	m.mu.Lock()
	defer m.mu.Unlock()
	if j := m.running[id]; j != nil {
		return j.done
	}
	return nil
}

// liveStatus returns a copy of an in-process run's live status, or nil
// when the job is not running here or its run has not started yet.
func (m *Manager) liveStatus(id string) *Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	j := m.running[id]
	if j == nil || j.st == nil {
		return nil
	}
	// The run replaces Store and Shards, never mutating them in place,
	// so the copy may share them.
	st := *j.st
	return &st
}

// update applies f to a running job's live status under m.mu, so
// concurrent Status calls never see a half-applied change.
func (m *Manager) update(f func()) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f()
}

// writeState persists a status as the job's state.json, atomically.
func (m *Manager) writeState(st *Status) error {
	buf, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return fmt.Errorf("jobs: encoding state: %w", err)
	}
	return writeFileAtomic(m.statePath(st.ID), append(buf, '\n'))
}

// writeFileAtomic replaces path via a same-directory temp file and
// rename, so readers never observe a torn document.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o666); err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	return nil
}
