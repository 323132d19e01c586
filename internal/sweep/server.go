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
// responses: json.Marshal's bytes, laid out as a json.Encoder with
// SetIndent("", "  ") lays them out, in one Write. `photoloop eval -json`
// matches `POST /v1/eval` byte for byte, and every sweep, study and
// exploration artifact matches its served body, because all of them go
// through it. Marshal keeps float formatting, omitempty and HTML
// escaping; indentJSON only adds the whitespace, without re-validating.
func EncodeResponseJSON(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = w.Write(indentJSON(b))
	return err
}

// indentJSON lays out src, compact valid JSON as json.Marshal writes it,
// in json.Encoder's SetIndent("", "  ") layout: a newline and indentation
// after '{', '[' and ',' and before a closing bracket, ": " after a key,
// empty objects and arrays on one line, and a final newline. Strings,
// escapes included, and number and literal runs are copied whole. It
// does not validate: other input may be laid out wrongly or panic.
func indentJSON(src []byte) []byte {
	// Indentation grows this package's documents by about 1.4x.
	dst := make([]byte, 0, len(src)+len(src)/2+1)
	depth := 0
	for i := 0; i < len(src); {
		switch c := src[i]; c {
		case '"':
			j := i + 1
			for ; src[j] != '"'; j++ {
				if src[j] == '\\' {
					j++
				}
			}
			dst = append(dst, src[i:j+1]...)
			i = j + 1
		case '{', '[':
			if next := src[i+1]; next == '}' || next == ']' {
				dst = append(dst, c, next)
				i += 2
				continue
			}
			depth++
			dst = appendIndentLine(append(dst, c), depth)
			i++
		case '}', ']':
			depth--
			dst = append(appendIndentLine(dst, depth), c)
			i++
		case ',':
			dst = appendIndentLine(append(dst, c), depth)
			i++
		case ':':
			dst = append(dst, ':', ' ')
			i++
		default:
			j := i + 1
			for j < len(src) && src[j] != ',' && src[j] != '}' && src[j] != ']' {
				j++
			}
			dst = append(dst, src[i:j]...)
			i = j
		}
	}
	return append(dst, '\n')
}

// appendIndentLine appends a newline and depth levels of two-space
// indentation.
func appendIndentLine(dst []byte, depth int) []byte {
	dst = append(dst, '\n')
	for range depth {
		dst = append(dst, ' ', ' ')
	}
	return dst
}

// DecodeSpec parses a sweep spec document strictly (unknown fields are
// errors), as `photoloop sweep -spec` does and DecodeBody does for
// POST /v1/sweep.
func DecodeSpec(r io.Reader) (Spec, error) {
	var sp Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		return Spec{}, fmt.Errorf("sweep: decoding spec: %w", err)
	}
	return sp, nil
}

// maxRequestBytes bounds every request body (DecodeBody): specs and
// inline networks are small documents.
const maxRequestBytes = 8 << 20

// Server exposes the evaluation and sweep engines over HTTP, letting the
// model run as a long-lived service:
//
//	POST /v1/eval     — one EvalRequest  -> EvalResponse
//	POST /v1/sweep    — one Spec         -> Result (JSON, or CSV with ?format=csv)
//	POST /v1/study    — one StudySpec    -> StudyResult (JSON, or ?format=csv|markdown)
//	GET  /v1/networks — the built-in workload zoo
//	GET  /v1/presets  — the architecture preset library
//
// All requests share one fingerprint-keyed search cache, so repeated
// evaluations of the same (architecture, layer shape) — across requests
// and across sweep points — are served without re-searching.
//
// Sweeps, studies and explorations are heavy runs served by HandleRun.
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

// maxConcurrentSweeps bounds in-flight heavy runs (AdmitHeavy); further
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
	s.mux.HandleFunc("POST /v1/sweep", HandleRun(s, "sweep", Run))
	s.mux.HandleFunc("POST /v1/study", HandleRun(s, "study", RunStudy))
	s.mux.HandleFunc("GET /v1/networks", s.handleNetworks)
	s.mux.HandleFunc("GET /v1/presets", s.handlePresets)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Mount registers an additional handler on the server's mux. Sibling
// front ends that would otherwise create an import cycle register their
// endpoints this way — the explore package mounts POST /v1/explore.
func (s *Server) Mount(pattern string, h http.Handler) { s.mux.Handle(pattern, h) }

// SearchCache returns the server's process-wide search cache, so mounted
// endpoints share the same deduplication the built-in ones use.
func (s *Server) SearchCache() *mapper.Cache { return s.cache }

// AdmitHeavy reserves one of the server's heavy-run slots, blocking until
// a slot frees or ctx is done. On success the caller must invoke the
// returned release. HandleRun and async job runs queue on it, so the
// server's total concurrency stays bounded.
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
	if !DecodeBody(w, r, &req) {
		return
	}
	resp, err := Eval(&req, s.cache)
	if err != nil {
		WriteHTTPError(w, http.StatusUnprocessableEntity, err)
		return
	}
	WriteJSON(w, resp)
}

// HandleRun is the front door of every heavy run (sweep, study,
// explore): it decodes the body strictly into a spec (400 "decoding
// request: …"), queues on the heavy-run admission (503 "<name> queue: …"),
// runs it with the server's workers, shared cache and the request's
// context (422 on failure), and renders the result with WriteArtifact in
// the ?format= the result supports — JSON otherwise.
func HandleRun[S, R any](s *Server, name string, run func(S, Options) (R, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var spec S
		if !DecodeBody(w, r, &spec) {
			return
		}
		release, err := s.AdmitHeavy(r.Context())
		if err != nil {
			WriteHTTPError(w, http.StatusServiceUnavailable, fmt.Errorf("%s queue: %w", name, err))
			return
		}
		defer release()
		res, err := run(spec, Options{Workers: s.Workers, Cache: s.cache, Context: r.Context()})
		if err != nil {
			WriteHTTPError(w, http.StatusUnprocessableEntity, err)
			return
		}
		format, contentType := ArtifactFormat(res, r.URL.Query().Get("format"))
		w.Header().Set("Content-Type", contentType)
		if err := WriteArtifact(w, res, format); err != nil {
			// Status is already committed; the truncated body is all we
			// can signal with.
			log.Printf("%s: writing %s response: %v", name, format, err)
		}
	}
}

// csvWriter and markdownWriter are the renderings an artifact may offer
// besides JSON.
type csvWriter interface{ WriteCSV(io.Writer) error }
type markdownWriter interface{ WriteMarkdown(io.Writer) error }

// ArtifactFormat resolves a requested rendering of res: "csv" or
// "markdown" when res has that writer, "json" for anything else. It
// returns the format WriteArtifact writes and its Content-Type.
func ArtifactFormat(res any, format string) (resolved, contentType string) {
	switch format {
	case "csv":
		if _, ok := res.(csvWriter); ok {
			return "csv", "text/csv"
		}
	case "markdown":
		if _, ok := res.(markdownWriter); ok {
			return "markdown", "text/markdown"
		}
	}
	return "json", "application/json"
}

// WriteArtifact renders a run's result in format (resolved by
// ArtifactFormat): CSV or markdown through the result's own writer, the
// server's JSON encoding otherwise. The CLI's -format output and every
// ?format= response are written here, so they are the same bytes.
func WriteArtifact(w io.Writer, res any, format string) error {
	switch format, _ = ArtifactFormat(res, format); format {
	case "csv":
		return res.(csvWriter).WriteCSV(w)
	case "markdown":
		return res.(markdownWriter).WriteMarkdown(w)
	}
	return EncodeResponseJSON(w, res)
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
	WriteJSON(w, out)
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
			WriteHTTPError(w, http.StatusInternalServerError, err)
			return
		}
		area, err := a.Area()
		if err != nil {
			WriteHTTPError(w, http.StatusInternalServerError, err)
			return
		}
		out = append(out, presetInfo{
			Name: p.Name, Kind: p.Kind(), Description: p.Description,
			PeakMACsPerCycle: a.PeakMACsPerCycle(), AreaUM2: area,
		})
	}
	WriteJSON(w, out)
}

// DecodeBody parses a JSON request body strictly (unknown fields are
// errors, bodies are capped at maxRequestBytes); on failure it writes a
// 400 and returns false. Every POST route decodes through it.
func DecodeBody(w http.ResponseWriter, r *http.Request, into any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		WriteHTTPError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return false
	}
	return true
}

// errorBody is the JSON error envelope every failure returns.
type errorBody struct {
	Error string `json:"error"`
}

// WriteHTTPError writes the server's JSON error envelope — every route,
// mounted ones included, fails with the same document.
func WriteHTTPError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorBody{Error: err.Error()})
}

// WriteJSON answers v as the server's JSON document.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := EncodeResponseJSON(w, v); err != nil {
		log.Printf("writing JSON response: %v", err)
	}
}
