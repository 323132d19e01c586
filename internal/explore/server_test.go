package explore

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"photoloop/internal/sweep"
)

// exploreServer builds a sweep server with the explore endpoint attached.
func exploreServer() *httptest.Server {
	s := sweep.NewServer()
	Attach(s)
	return httptest.NewServer(s)
}

// specJSON is the small fixture as the wire document POST /v1/explore
// accepts.
const specJSON = `{
  "name": "test-explore",
  "base": {"preset": "albireo"},
  "axes": [
    {"param": "or_lanes", "values": [1, 3, 5]},
    {"param": "output_lanes", "values": [3, 9, 15]},
    {"param": "weight_reuse", "values": [false, true]}
  ],
  "workload": {"network": "alexnet"},
  "objectives": ["energy", "area"],
  "mapper_budget": 60,
  "seed": 1,
  "search_workers": 1
}`

// TestServeExploreMatchesLocalRun pins the HTTP path to the library path:
// POST /v1/explore must answer byte-for-byte what Run + WriteJSON produce
// locally for the same spec.
func TestServeExploreMatchesLocalRun(t *testing.T) {
	ts := exploreServer()
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/explore", "application/json", strings.NewReader(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var got bytes.Buffer
	if _, err := got.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}

	f, err := Run(smallSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := f.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("served frontier differs from local run:\n--- served ---\n%s--- local ---\n%s", got.String(), want.String())
	}
	// The wire document must carry the search-funnel accounting (the
	// fixture's searches always fully evaluate at least one candidate).
	var round Frontier
	if err := json.Unmarshal(got.Bytes(), &round); err != nil {
		t.Fatal(err)
	}
	if round.FullEvals == 0 {
		t.Error("served frontier carries no search-funnel stats (full_evals = 0)")
	}
}

// TestServeExploreFormats checks the csv and markdown renderings and the
// error paths.
func TestServeExploreFormats(t *testing.T) {
	ts := exploreServer()
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/explore?format=markdown", "application/json", strings.NewReader(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(buf.String(), "Pareto-optimal") {
		t.Errorf("markdown response: status %d, body %q", resp.StatusCode, buf.String())
	}

	resp, err = http.Post(ts.URL+"/v1/explore?format=csv", "application/json", strings.NewReader(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(buf.String(), "lattice_index,") {
		t.Errorf("csv response: status %d, body %q", resp.StatusCode, buf.String())
	}

	resp, err = http.Post(ts.URL+"/v1/explore", "application/json", strings.NewReader(`{"bogus": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status %d, want 400", resp.StatusCode)
	}

	resp, err = http.Post(ts.URL+"/v1/explore", "application/json",
		strings.NewReader(`{"base": {"preset": "albireo"}, "workload": {"network": "alexnet"}, "axes": [{"param": "warp_cores", "min": 1, "max": 1000}]}`))
	if err != nil {
		t.Fatal(err)
	}
	var errBody struct {
		Error string `json:"error"`
	}
	json.NewDecoder(resp.Body).Decode(&errBody)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity || errBody.Error == "" {
		t.Errorf("bad spec: status %d, error %q (want 422 with message)", resp.StatusCode, errBody.Error)
	}
}

// TestServeExploreQueueRejection pins explore's heavy-run admission
// failure: with every slot held, an exploration whose request context
// ends while it queues gets a 503 naming its queue.
func TestServeExploreQueueRejection(t *testing.T) {
	s := sweep.NewServer()
	Attach(s)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for {
		// Hold every slot: the first admission that has to queue times
		// out.
		wait, stop := context.WithTimeout(ctx, 20*time.Millisecond)
		release, err := s.AdmitHeavy(wait)
		stop()
		if err != nil {
			break
		}
		defer release()
	}
	canceled, stop := context.WithCancel(ctx)
	stop()
	req := httptest.NewRequest("POST", "/v1/explore", strings.NewReader(specJSON)).WithContext(canceled)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	want := `{"error":"explore queue: context canceled"}` + "\n"
	if w.Code != http.StatusServiceUnavailable || w.Body.String() != want {
		t.Errorf("status %d body %q, want 503 %q", w.Code, w.Body.String(), want)
	}
}
