package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"photoloop/internal/presets"
	"photoloop/internal/spec"
)

func postJSON(t *testing.T, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", path, bytes.NewReader(buf))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// TestServeEvalMatchesLocalEval is the serving-equivalence anchor: POST
// /v1/eval for the template architecture + vgg16 must answer exactly the
// JSON that the local evaluation path (photoloop eval -json) produces.
func TestServeEvalMatchesLocalEval(t *testing.T) {
	var as spec.ArchSpec
	if err := json.Unmarshal([]byte(spec.Template), &as); err != nil {
		t.Fatal(err)
	}
	req := &EvalRequest{
		Arch: &as, Network: "vgg16",
		Budget: 60, Seed: 1, Workers: 2,
	}

	srv := NewServer()
	w := postJSON(t, srv, "/v1/eval", req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}

	local, err := Eval(req, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	if err := enc.Encode(local); err != nil {
		t.Fatal(err)
	}
	if got := w.Body.String(); got != want.String() {
		t.Errorf("server response differs from local eval:\nserver: %s\nlocal:  %s", got, want.String())
	}

	var resp EvalResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Arch != "mini-photonic" || resp.Network != "vgg16" || len(resp.Layers) != 16 {
		t.Errorf("response shape wrong: arch %s net %s layers %d", resp.Arch, resp.Network, len(resp.Layers))
	}
	if resp.TotalPJ <= 0 || resp.PJPerMAC <= 0 {
		t.Errorf("bad totals: %+v", resp)
	}
}

func TestServeEvalSingleLayerAndErrors(t *testing.T) {
	srv := NewServer()

	w := postJSON(t, srv, "/v1/eval", &EvalRequest{
		Albireo: &AlbireoBase{Scaling: "conservative"},
		Network: "alexnet", Layer: "conv3", Budget: 60, Seed: 1, Workers: 2,
	})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var resp EvalResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Layers) != 1 || resp.Layers[0].Layer != "conv3" {
		t.Errorf("layer filter broken: %+v", resp.Layers)
	}

	// Unprocessable request: no base.
	w = postJSON(t, srv, "/v1/eval", &EvalRequest{Network: "vgg16"})
	if w.Code != http.StatusUnprocessableEntity {
		t.Errorf("no-base status %d", w.Code)
	}
	var eb errorBody
	if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil || eb.Error == "" {
		t.Errorf("error body not JSON: %s", w.Body.String())
	}

	// Malformed JSON and unknown fields are 400s.
	req := httptest.NewRequest("POST", "/v1/eval", strings.NewReader("{nope"))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad json status %d", rec.Code)
	}
	req = httptest.NewRequest("POST", "/v1/eval", strings.NewReader(`{"bogus_field": 1}`))
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("unknown field status %d", rec.Code)
	}

	// Wrong method.
	req = httptest.NewRequest("GET", "/v1/eval", nil)
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/eval status %d", rec.Code)
	}
}

// TestServeRejectsSearchWorkersOverCap: the per-search worker count is
// client input that sizes an allocation and a goroutine pool per layer
// search, so both /v1/eval's workers and a sweep's search_workers are
// capped at the spec validation point.
func TestServeRejectsSearchWorkersOverCap(t *testing.T) {
	srv := NewServer()
	ok := &EvalRequest{Preset: "albireo", Inline: tinyNet(), Budget: 10, Seed: 1, Workers: maxSearchWorkers}
	if w := postJSON(t, srv, "/v1/eval", ok); w.Code != http.StatusOK {
		t.Fatalf("workers at the cap: status %d: %s", w.Code, w.Body.String())
	}
	for _, workers := range []int{maxSearchWorkers + 1, 100000} {
		req := *ok
		req.Workers = workers
		w := postJSON(t, srv, "/v1/eval", &req)
		if w.Code != http.StatusUnprocessableEntity || !strings.Contains(w.Body.String(), "search workers exceeds the cap") {
			t.Errorf("eval workers=%d: status %d: %s", workers, w.Code, w.Body.String())
		}
		w = postJSON(t, srv, "/v1/sweep", &Spec{
			Base:          Base{Preset: "albireo"},
			Workloads:     []Workload{{Inline: tinyNet()}},
			Budget:        10,
			SearchWorkers: workers,
		})
		if w.Code != http.StatusUnprocessableEntity || !strings.Contains(w.Body.String(), "search workers exceeds the cap") {
			t.Errorf("sweep search_workers=%d: status %d: %s", workers, w.Code, w.Body.String())
		}
	}
}

func TestServeSweepJSONAndCSV(t *testing.T) {
	srv := NewServer()
	sp := Spec{
		Name:      "serve-sweep",
		Base:      Base{Albireo: &AlbireoBase{}},
		Axes:      []Axis{{Param: "output_lanes", Values: []any{3, 9}}},
		Workloads: []Workload{{Inline: tinyNet()}},
		Budget:    60,
	}
	w := postJSON(t, srv, "/v1/sweep", sp)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var res Result
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 || res.Points[0].PJPerMAC <= 0 {
		t.Errorf("sweep response wrong: %+v", res)
	}

	w = postJSON(t, srv, "/v1/sweep?format=csv", sp)
	if w.Code != http.StatusOK {
		t.Fatalf("csv status %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); ct != "text/csv" {
		t.Errorf("csv content type %q", ct)
	}
	if lines := strings.Count(strings.TrimSpace(w.Body.String()), "\n"); lines != 2 {
		t.Errorf("csv has %d newlines, want 2 (header + 2 rows)", lines)
	}

	// A second identical sweep should be served largely from the shared
	// cache.
	if _, misses0 := srv.SearchCache().Stats(); misses0 == 0 {
		t.Fatal("first sweep recorded no misses")
	}
	_, missesBefore := srv.SearchCache().Stats()
	w = postJSON(t, srv, "/v1/sweep", sp)
	if w.Code != http.StatusOK {
		t.Fatalf("second sweep status %d", w.Code)
	}
	hits, missesAfter := srv.SearchCache().Stats()
	if missesAfter != missesBefore {
		t.Errorf("second identical sweep recomputed searches: misses %d -> %d", missesBefore, missesAfter)
	}
	if hits == 0 {
		t.Error("second identical sweep recorded no cache hits")
	}

	// Invalid spec is a 422.
	w = postJSON(t, srv, "/v1/sweep", Spec{})
	if w.Code != http.StatusUnprocessableEntity {
		t.Errorf("empty spec status %d", w.Code)
	}
}

func TestServeNetworks(t *testing.T) {
	srv := NewServer()
	req := httptest.NewRequest("GET", "/v1/networks", nil)
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	var nets []networkInfo
	if err := json.Unmarshal(w.Body.Bytes(), &nets); err != nil {
		t.Fatal(err)
	}
	if len(nets) < 3 {
		t.Fatalf("got %d networks", len(nets))
	}
	byName := map[string]networkInfo{}
	for _, n := range nets {
		byName[n.Name] = n
	}
	vgg := byName["vgg16"]
	if vgg.Layers != 16 || vgg.MACs <= 0 || vgg.Weights <= 0 {
		t.Errorf("vgg16 info wrong: %+v", vgg)
	}
	bert := byName["bert_base"]
	if bert.Family != "transformer" || bert.Description == "" || bert.Layers != 96 {
		t.Errorf("bert_base info wrong: %+v", bert)
	}
}

func TestServePresets(t *testing.T) {
	srv := NewServer()
	req := httptest.NewRequest("GET", "/v1/presets", nil)
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	var infos []presetInfo
	if err := json.Unmarshal(w.Body.Bytes(), &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != len(presets.Names()) {
		t.Fatalf("got %d presets, want %d", len(infos), len(presets.Names()))
	}
	for _, info := range infos {
		if info.Name == "" || info.Kind == "" || info.Description == "" ||
			info.PeakMACsPerCycle <= 0 || info.AreaUM2 <= 0 {
			t.Errorf("incomplete preset info: %+v", info)
		}
	}
}

// TestServeStudyMatchesLocal pins POST /v1/study to the local RunStudy
// path (the CLI's engine), CSV negotiation included.
func TestServeStudyMatchesLocal(t *testing.T) {
	srv := NewServer()
	sp := StudySpec{
		Presets:       []string{"albireo"},
		Workloads:     []string{"alexnet"},
		Budget:        60,
		Seed:          1,
		SearchWorkers: 1,
	}
	w := postJSON(t, srv, "/v1/study", sp)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var got StudyResult
	if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	local, err := RunStudy(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != len(local.Rows) {
		t.Fatalf("server %d rows, local %d", len(got.Rows), len(local.Rows))
	}
	for i := range got.Rows {
		if got.Rows[i].TotalPJ != local.Rows[i].TotalPJ || got.Rows[i].Rank != local.Rows[i].Rank {
			t.Errorf("row %d differs: server %+v local %+v", i, got.Rows[i], local.Rows[i])
		}
	}

	w = postJSON(t, srv, "/v1/study?format=csv", sp)
	if w.Code != http.StatusOK || w.Header().Get("Content-Type") != "text/csv" {
		t.Fatalf("csv status %d, type %q", w.Code, w.Header().Get("Content-Type"))
	}

	// Unknown preset is a 422.
	w = postJSON(t, srv, "/v1/study", StudySpec{Presets: []string{"nope"}})
	if w.Code != http.StatusUnprocessableEntity {
		t.Errorf("bad study status %d", w.Code)
	}
}

// TestServeHeavyQueueRejection pins the heavy-run admission failure: with
// every slot held, a sweep or study whose request context ends while it
// queues gets a 503 naming its queue.
func TestServeHeavyQueueRejection(t *testing.T) {
	srv := NewServer()
	for i := 0; i < maxConcurrentSweeps; i++ {
		release, err := srv.AdmitHeavy(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		defer release()
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range []struct{ path, body, want string }{
		{"/v1/sweep", `{"base":{"albireo":{}},"workloads":[{"network":"alexnet"}]}`, `{"error":"sweep queue: context canceled"}` + "\n"},
		{"/v1/study", `{"presets":["albireo"],"workloads":["alexnet"]}`, `{"error":"study queue: context canceled"}` + "\n"},
	} {
		req := httptest.NewRequest("POST", c.path, strings.NewReader(c.body)).WithContext(ctx)
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		if w.Code != http.StatusServiceUnavailable || w.Body.String() != c.want {
			t.Errorf("%s: status %d body %q, want 503 %q", c.path, w.Code, w.Body.String(), c.want)
		}
	}
}
