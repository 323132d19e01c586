package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"

	"photoloop/internal/mapper"
	"photoloop/internal/presets"
	"photoloop/internal/workload"
)

// EncodeResponseJSON writes a value exactly as the HTTP server encodes its
// responses (two-space indented JSON) — `photoloop eval -json` matches
// `POST /v1/eval` byte for byte because both go through it.
func EncodeResponseJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// DecodeSpec parses a sweep spec document strictly (unknown fields are
// errors), as `photoloop sweep -spec` and `POST /v1/sweep` do.
func DecodeSpec(r io.Reader) (Spec, error) {
	var sp Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		return Spec{}, fmt.Errorf("sweep: decoding spec: %w", err)
	}
	return sp, nil
}

// maxRequestBytes bounds request bodies: sweep specs and inline networks
// are small documents.
const maxRequestBytes = 8 << 20

// Server exposes the evaluation and sweep engines over HTTP, letting the
// model run as a long-lived service:
//
//	POST /v1/eval     — one EvalRequest  -> EvalResponse
//	POST /v1/sweep    — one Spec         -> Result (JSON, or CSV with ?format=csv)
//	POST /v1/study    — one StudySpec    -> StudyResult (JSON, or CSV with ?format=csv)
//	GET  /v1/networks — the built-in workload zoo
//	GET  /v1/presets  — the architecture preset library
//
// All requests share one fingerprint-keyed search cache, so repeated
// evaluations of the same (architecture, layer shape) — across requests
// and across sweep points — are served without re-searching.
//
// Sibling front ends register further endpoints through Mount; the
// explore package adds POST /v1/explore (see explore.Attach), sharing the
// same cache and heavy-run admission.
type Server struct {
	mux   *http.ServeMux
	cache *mapper.Cache
	// sweepSem caps concurrently running sweeps: each sweep spins up a
	// full point pool, so unbounded admission would melt the machine
	// under a handful of large concurrent requests. Waiters honor the
	// request context.
	sweepSem chan struct{}
	// Workers caps per-sweep point parallelism (0 = GOMAXPROCS).
	Workers int
}

// cacheEntryLimit bounds the server's process-wide search cache: past the
// limit the cache epoch-flushes and rebuilds (clients iterating distinct
// architectures must not grow memory without bound).
const cacheEntryLimit = 1 << 16

// maxConcurrentSweeps bounds in-flight POST /v1/sweep requests; further
// requests queue on their context (evals stay unqueued — they are one
// network each).
const maxConcurrentSweeps = 2

// NewServer builds the HTTP front end with a fresh shared cache.
func NewServer() *Server {
	s := &Server{
		mux:      http.NewServeMux(),
		cache:    mapper.NewCacheLimit(cacheEntryLimit),
		sweepSem: make(chan struct{}, maxConcurrentSweeps),
	}
	s.mux.HandleFunc("POST /v1/eval", s.handleEval)
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	s.mux.HandleFunc("POST /v1/study", s.handleStudy)
	s.mux.HandleFunc("GET /v1/networks", s.handleNetworks)
	s.mux.HandleFunc("GET /v1/presets", s.handlePresets)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// CacheStats returns the shared cache's hit/miss counters.
func (s *Server) CacheStats() (hits, misses int64) { return s.cache.Stats() }

// Mount registers an additional handler on the server's mux. Sibling
// front ends that would otherwise create an import cycle register their
// endpoints this way — the explore package mounts POST /v1/explore.
func (s *Server) Mount(pattern string, h http.Handler) { s.mux.Handle(pattern, h) }

// SearchCache returns the server's process-wide search cache, so mounted
// endpoints share the same deduplication the built-in ones use.
func (s *Server) SearchCache() *mapper.Cache { return s.cache }

// AdmitHeavy reserves one of the server's heavy-run slots (the admission
// semaphore sweeps and studies queue on), blocking until a slot frees or
// ctx is done. On success the caller must invoke the returned release.
// Mounted endpoints that spin up a full point pool (explore) use it so
// the server's total concurrency stays bounded.
func (s *Server) AdmitHeavy(ctx context.Context) (release func(), err error) {
	select {
	case s.sweepSem <- struct{}{}:
		return func() { <-s.sweepSem }, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (s *Server) handleEval(w http.ResponseWriter, r *http.Request) {
	var req EvalRequest
	if !decodeBody(w, r, &req) {
		return
	}
	resp, err := Eval(&req, s.cache)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, resp)
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var sp Spec
	if !decodeBody(w, r, &sp) {
		return
	}
	release, err := s.AdmitHeavy(r.Context())
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, fmt.Errorf("sweep queue: %w", err))
		return
	}
	defer release()
	res, err := Run(sp, Options{Workers: s.Workers, Cache: s.cache, Context: r.Context()})
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, err)
		return
	}
	if r.URL.Query().Get("format") == "csv" {
		w.Header().Set("Content-Type", "text/csv")
		if err := res.WriteCSV(w); err != nil {
			// Status is already committed; the truncated body is all we
			// can signal with.
			log.Printf("sweep: writing CSV response: %v", err)
		}
		return
	}
	writeJSON(w, res)
}

// handleStudy runs a comparative preset study; like sweeps, studies spin
// up a full point pool, so they share the sweep admission semaphore.
func (s *Server) handleStudy(w http.ResponseWriter, r *http.Request) {
	var sp StudySpec
	if !decodeBody(w, r, &sp) {
		return
	}
	release, err := s.AdmitHeavy(r.Context())
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, fmt.Errorf("study queue: %w", err))
		return
	}
	defer release()
	res, err := RunStudy(sp, Options{Workers: s.Workers, Cache: s.cache, Context: r.Context()})
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, err)
		return
	}
	if r.URL.Query().Get("format") == "csv" {
		w.Header().Set("Content-Type", "text/csv")
		if err := res.WriteCSV(w); err != nil {
			log.Printf("study: writing CSV response: %v", err)
		}
		return
	}
	writeJSON(w, res)
}

// networkInfo is one zoo entry of GET /v1/networks.
type networkInfo struct {
	Name        string `json:"name"`
	Family      string `json:"family"`
	Description string `json:"description"`
	Layers      int    `json:"layers"`
	MACs        int64  `json:"macs"`
	Weights     int64  `json:"weights"`
}

func (s *Server) handleNetworks(w http.ResponseWriter, r *http.Request) {
	entries := workload.ZooEntries()
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name < entries[j].Name })
	out := make([]networkInfo, 0, len(entries))
	for _, e := range entries {
		n := e.Build(1)
		out = append(out, networkInfo{
			Name: e.Name, Family: e.Family, Description: e.Description,
			Layers: len(n.Layers), MACs: n.MACs(), Weights: n.WeightElems(),
		})
	}
	writeJSON(w, out)
}

// presetInfo is one library entry of GET /v1/presets.
type presetInfo struct {
	Name             string  `json:"name"`
	Kind             string  `json:"kind"`
	Description      string  `json:"description"`
	PeakMACsPerCycle int64   `json:"peak_macs_per_cycle"`
	AreaUM2          float64 `json:"area_um2"`
}

func (s *Server) handlePresets(w http.ResponseWriter, r *http.Request) {
	all := presets.All()
	out := make([]presetInfo, 0, len(all))
	for _, p := range all {
		a, err := p.Build()
		if err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		area, err := a.Area()
		if err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		out = append(out, presetInfo{
			Name: p.Name, Kind: p.Kind(), Description: p.Description,
			PeakMACsPerCycle: a.PeakMACsPerCycle(), AreaUM2: area,
		})
	}
	writeJSON(w, out)
}

// decodeBody parses a JSON request body strictly; on failure it writes a
// 400 and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, into any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return false
	}
	return true
}

// errorBody is the JSON error envelope every failure returns.
type errorBody struct {
	Error string `json:"error"`
}

func httpError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorBody{Error: err.Error()})
}

// WriteHTTPError writes the server's JSON error envelope — mounted
// endpoints (explore) use it so every /v1 route fails with the same
// document.
func WriteHTTPError(w http.ResponseWriter, status int, err error) {
	httpError(w, status, err)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	EncodeResponseJSON(w, v)
}
