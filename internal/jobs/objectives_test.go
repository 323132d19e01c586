package jobs

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"photoloop/internal/explore"
	"photoloop/internal/sweep"
)

// objectiveExploreJob is the shared fixture for the objective round-trip
// table: one explore job per registered objective, everything else pinned.
func objectiveExploreJob(obj string) Spec {
	sp := exploreJob()
	sp.Explore.Name = "objective-" + obj
	sp.Explore.Objectives = []string{obj}
	return sp
}

// TestObjectivesRoundTrip drives every registered explore objective
// through the three surfaces that must agree on it: the local engine vs
// POST /v1/explore (byte-identical frontier JSON), the frontier CSV (an
// objective_<name> column), and the jobs store codec (spec read-back is
// lossless, content addressing is stable, and the job artifact matches
// the local run byte-for-byte once the per-attempt cache counters are
// zeroed, as Run documents).
func TestObjectivesRoundTrip(t *testing.T) {
	// The six documented objectives, by canonical name.
	objs := []string{"energy", "pj_per_mac", "delay", "area", "edp", "accuracy"}
	dir := t.TempDir()
	m := openManager(t, dir)

	for _, obj := range objs {
		t.Run(obj, func(t *testing.T) {
			sp := objectiveExploreJob(obj)

			// Each objective gets its own server: the shared process-wide
			// search cache would otherwise warm across subtests and skew
			// the served cache counters away from the cold local run.
			srv := sweep.NewServer()
			explore.Attach(srv)
			ts := httptest.NewServer(srv)
			defer ts.Close()

			f, err := explore.Run(*sp.Explore, explore.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(f.Objectives) != 1 || f.Objectives[0] != obj {
				t.Fatalf("frontier canonicalized %q to %v", obj, f.Objectives)
			}
			var local bytes.Buffer
			if err := f.WriteJSON(&local); err != nil {
				t.Fatal(err)
			}

			// HTTP leg: the served frontier is the local frontier.
			body, err := json.Marshal(sp.Explore)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(ts.URL+"/v1/explore", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var served bytes.Buffer
			served.ReadFrom(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("POST /v1/explore: status %d: %s", resp.StatusCode, served.String())
			}
			if !bytes.Equal(served.Bytes(), local.Bytes()) {
				t.Errorf("served frontier differs from local run for objective %q", obj)
			}

			// CSV leg: one objective_<name> column, and the accuracy
			// objective additionally populates the effective_bits cells.
			var csvBuf bytes.Buffer
			if err := f.WriteCSV(&csvBuf); err != nil {
				t.Fatal(err)
			}
			lines := strings.SplitN(csvBuf.String(), "\n", 3)
			if !strings.Contains(lines[0], "objective_"+obj) {
				t.Errorf("frontier CSV header lacks objective_%s: %s", obj, lines[0])
			}
			if !strings.Contains(lines[0], "effective_bits") {
				t.Errorf("frontier CSV header lacks effective_bits: %s", lines[0])
			}

			// Jobs codec leg: submit, read back, resubmit — the codec is
			// lossless and the content address is a pure function of the
			// canonical spec.
			st, err := m.Submit(sp)
			if err != nil {
				t.Fatal(err)
			}
			back, err := m.Spec(st.ID)
			if err != nil {
				t.Fatal(err)
			}
			if back.Explore == nil || len(back.Explore.Objectives) != 1 || back.Explore.Objectives[0] != obj {
				t.Fatalf("spec read-back lost the objective: %+v", back.Explore)
			}
			st2, err := m.Submit(*back)
			if err != nil {
				t.Fatal(err)
			}
			if st2.ID != st.ID {
				t.Fatalf("resubmitted read-back got a new ID: %s vs %s", st2.ID, st.ID)
			}

			if _, err := m.Run(t.Context(), st.ID); err != nil {
				t.Fatal(err)
			}
			artifact, err := m.Result(st.ID)
			if err != nil {
				t.Fatal(err)
			}
			f.CacheHits, f.CacheMisses = 0, 0
			local.Reset()
			if err := f.WriteJSON(&local); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(artifact, local.Bytes()) {
				t.Errorf("job artifact differs from local run for objective %q:\n--- artifact ---\n%s--- local ---\n%s",
					obj, artifact, local.String())
			}
		})
	}
}

// TestStudyObjectivesRoundTrip covers the study-side vocabulary: every
// registered study objective survives a study run, the JSON round-trip,
// and the CSV rendering.
func TestStudyObjectivesRoundTrip(t *testing.T) {
	objs := sweep.StudyObjectives()
	sp := sweep.StudySpec{
		Name:          "objective-study",
		Presets:       []string{"albireo"},
		Workloads:     []string{"alexnet"},
		Objectives:    objs,
		Budget:        40,
		Seed:          1,
		SearchWorkers: 1,
	}
	res, err := sweep.RunStudy(sp, sweep.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i := range res.Rows {
		seen[res.Rows[i].Objective] = true
	}
	for _, obj := range objs {
		if !seen[obj] {
			t.Errorf("study rows missing objective %q (got %v)", obj, seen)
		}
	}

	var jsonBuf bytes.Buffer
	if err := res.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	var round sweep.StudyResult
	if err := json.Unmarshal(jsonBuf.Bytes(), &round); err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := round.WriteJSON(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(jsonBuf.Bytes(), again.Bytes()) {
		t.Errorf("study JSON does not round-trip:\n first %s\nsecond %s", jsonBuf.String(), again.String())
	}

	var csvBuf bytes.Buffer
	if err := res.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	for _, obj := range objs {
		if !strings.Contains(csvBuf.String(), ","+obj+",") {
			t.Errorf("study CSV has no row for objective %q:\n%s", obj, csvBuf.String())
		}
	}
}
