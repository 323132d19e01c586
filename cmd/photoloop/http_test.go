package main

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"photoloop/internal/explore"
	"photoloop/internal/sweep"
)

// TestCLIMatchesHTTP pins the HTTP == CLI equivalence of the heavy runs:
// `photoloop sweep|study|explore -format F -out file` writes exactly the
// bytes POST /v1/sweep|study|explore?format=F answers for the same spec.
// Every case gets a fresh server, so the served cache counters start cold
// like the CLI's per-run cache.
func TestCLIMatchesHTTP(t *testing.T) {
	dir := t.TempDir()
	sweepSpec := `{
  "name": "cli-http-sweep",
  "base": {"albireo": {}},
  "axes": [{"param": "output_lanes", "values": [3, 9]}],
  "workloads": [{"network": "alexnet"}],
  "budget": 40,
  "seed": 1,
  "search_workers": 1
}`
	exploreSpec := `{
  "name": "cli-http-explore",
  "base": {"preset": "albireo"},
  "axes": [
    {"param": "or_lanes", "values": [1, 3]},
    {"param": "output_lanes", "values": [3, 9]}
  ],
  "workload": {"network": "alexnet"},
  "objectives": ["energy", "area"],
  "mapper_budget": 40,
  "seed": 1,
  "search_workers": 1
}`
	studySpec := `{
  "presets": ["albireo", "electrical-baseline"],
  "workloads": ["alexnet"],
  "objectives": ["energy"],
  "batch": 1,
  "budget": 40,
  "seed": 1,
  "search_workers": 1
}`
	sweepPath := filepath.Join(dir, "sweep.json")
	explorePath := filepath.Join(dir, "explore.json")
	for path, doc := range map[string]string{sweepPath: sweepSpec, explorePath: exploreSpec} {
		if err := os.WriteFile(path, []byte(doc), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	studyArgs := []string{"study", "-presets", "albireo,electrical-baseline", "-workloads", "alexnet",
		"-objectives", "energy", "-batch", "1", "-budget", "40", "-seed", "1", "-search-workers", "1"}

	for _, c := range []struct {
		route, body string
		args        []string
		formats     []string
	}{
		{"/v1/sweep", sweepSpec, []string{"sweep", "-spec", sweepPath}, []string{"json", "csv"}},
		{"/v1/study", studySpec, studyArgs, []string{"json", "csv", "markdown"}},
		{"/v1/explore", exploreSpec, []string{"explore", "-spec", explorePath}, []string{"json", "csv", "markdown"}},
	} {
		for _, format := range c.formats {
			t.Run(c.route[len("/v1/"):]+"/"+format, func(t *testing.T) {
				out := filepath.Join(t.TempDir(), "artifact")
				args := append(append([]string{}, c.args...), "-format", format, "-quiet", "-out", out)
				if code := run(args); code != 0 {
					t.Fatalf("photoloop %v exited %d", args, code)
				}
				want, err := os.ReadFile(out)
				if err != nil {
					t.Fatal(err)
				}

				srv := sweep.NewServer()
				explore.Attach(srv)
				req := httptest.NewRequest("POST", c.route+"?format="+format, bytes.NewReader([]byte(c.body)))
				w := httptest.NewRecorder()
				srv.ServeHTTP(w, req)
				if w.Code != 200 {
					t.Fatalf("POST %s?format=%s: status %d: %s", c.route, format, w.Code, w.Body.String())
				}
				if !bytes.Equal(w.Body.Bytes(), want) {
					t.Errorf("POST %s?format=%s differs from the CLI artifact:\n--- http ---\n%s--- cli ---\n%s",
						c.route, format, w.Body.String(), want)
				}
			})
		}
	}
}
