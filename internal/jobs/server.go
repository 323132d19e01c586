package jobs

import (
	"bufio"
	"context"
	"io"
	"log"
	"net/http"
	"os"
	"time"

	"photoloop/internal/shard"
	"photoloop/internal/sweep"
)

// streamPollInterval is how often the stream endpoint re-reads a running
// job's point log after catching up to its tail.
const streamPollInterval = 100 * time.Millisecond

// Attach mounts the job API on a sweep server, backed by the manager's
// store directory:
//
//	POST /v1/jobs              submit a Spec; starts it asynchronously (202 + Status)
//	GET  /v1/jobs              list jobs
//	GET  /v1/jobs/{id}         one job's Status
//	GET  /v1/jobs/{id}/result  the finished artifact (404 until done)
//	GET  /v1/jobs/{id}/stream  NDJSON of points as they complete (tails a running job)
//
// Submitted jobs queue on the server's heavy-run admission alongside
// sweeps and explorations, so async jobs and synchronous requests never
// oversubscribe the machine together. Submission is idempotent: posting a
// spec already known (same content address) reports the existing job.
func Attach(s *sweep.Server, m *Manager) {
	// A sharding manager also speaks the worker protocol: lease,
	// heartbeat, complete, fail, per-job shard progress, and the
	// shared-nothing result exchange — upload, warm-key digest,
	// single-result fetch — that remote workers without a shared store
	// directory talk through (package shard documents the endpoints).
	// Jobs clients are unaffected.
	if m.Shard != nil {
		shard.AttachHTTP(s.Mount, m.Shard, m.store)
	}
	s.Mount("POST /v1/jobs", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handleSubmit(s, m, w, r)
	}))
	s.Mount("GET /v1/jobs", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		list, err := m.List()
		if err != nil {
			sweep.WriteHTTPError(w, http.StatusInternalServerError, err)
			return
		}
		sweep.WriteJSON(w, list)
	}))
	s.Mount("GET /v1/jobs/{id}", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		st, err := m.Status(r.PathValue("id"))
		if err != nil {
			sweep.WriteHTTPError(w, http.StatusNotFound, err)
			return
		}
		sweep.WriteJSON(w, st)
	}))
	s.Mount("GET /v1/jobs/{id}/result", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		buf, err := m.Result(r.PathValue("id"))
		if err != nil {
			sweep.WriteHTTPError(w, http.StatusNotFound, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(buf)
	}))
	s.Mount("GET /v1/jobs/{id}/stream", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handleStream(m, w, r)
	}))
}

func handleSubmit(s *sweep.Server, m *Manager, w http.ResponseWriter, r *http.Request) {
	var sp Spec
	if !sweep.DecodeBody(w, r, &sp) {
		return
	}
	st, err := m.Submit(sp)
	if err != nil {
		sweep.WriteHTTPError(w, http.StatusUnprocessableEntity, err)
		return
	}
	// One runner per job: if it is already running (or a concurrent
	// submit just started it), report it rather than double-running.
	if m.runningChan(st.ID) == nil && st.State != StateDone {
		go func(id string) {
			// The job outlives the submit request, so admission waits on
			// the background context, not the request's.
			release, err := s.AdmitHeavy(context.Background())
			if err != nil {
				return
			}
			defer release()
			if _, err := m.Run(context.Background(), id); err != nil {
				log.Printf("jobs: job %s: %v", id, err)
			}
		}(st.ID)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	if err := sweep.EncodeResponseJSON(w, st); err != nil {
		log.Printf("jobs: writing submit response: %v", err)
	}
}

// handleStream tails a job's point log as NDJSON: everything already
// evaluated immediately, then new points as the running job completes
// them, ending when the job stops running. A finished job streams its
// whole log and closes. Slow readers never block the job — the log is a
// file, not a channel.
func handleStream(m *Manager, w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, err := m.Status(id); err != nil {
		sweep.WriteHTTPError(w, http.StatusNotFound, err)
		return
	}
	f, err := os.Open(m.pointsPath(id))
	if err != nil && !os.IsNotExist(err) {
		sweep.WriteHTTPError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	var off int64
	for {
		running := m.runningChan(id) != nil
		if f == nil {
			// The log appears when the run starts; keep polling while the
			// job is live.
			if f, err = os.Open(m.pointsPath(id)); err != nil {
				f = nil
			}
		}
		if f != nil {
			n, err := copyLines(w, f, off)
			off += n
			if n > 0 && flusher != nil {
				flusher.Flush()
			}
			if err != nil {
				break // client went away
			}
		}
		if !running {
			break
		}
		select {
		case <-r.Context().Done():
			f.Close()
			return
		case <-time.After(streamPollInterval):
		}
	}
	if f != nil {
		f.Close()
	}
}

// copyLines copies whole lines from the log starting at off, returning
// how many bytes were consumed. A trailing partial line (a point mid-
// write) is left for the next poll.
func copyLines(w io.Writer, f *os.File, off int64) (int64, error) {
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		return 0, err
	}
	var n int64
	br := bufio.NewReader(f)
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			return n, nil // EOF or partial tail: wait for more
		}
		if _, err := w.Write(line); err != nil {
			return n, err
		}
		n += int64(len(line))
	}
}
