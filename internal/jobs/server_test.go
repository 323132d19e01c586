package jobs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"photoloop/internal/explore"
	"photoloop/internal/sweep"
)

func newJobServer(t *testing.T) (*sweep.Server, *Manager) {
	t.Helper()
	srv := sweep.NewServer()
	m := openManager(t, t.TempDir())
	Attach(srv, m)
	return srv, m
}

func postJob(t *testing.T, srv *sweep.Server, sp Spec) *Status {
	t.Helper()
	body, err := json.Marshal(&sp)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", "/v1/jobs", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs status %d: %s", rec.Code, rec.Body.String())
	}
	var st Status
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	return &st
}

// waitDone polls the status endpoint until the async run finishes.
func waitDone(t *testing.T, srv *sweep.Server, id string) *Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		req := httptest.NewRequest("GET", "/v1/jobs/"+id, nil)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /v1/jobs/%s status %d: %s", id, rec.Code, rec.Body.String())
		}
		var st Status
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		switch st.State {
		case StateDone:
			return &st
		case StateFailed:
			t.Fatalf("job failed: %s", st.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("job did not finish in time")
	return nil
}

func TestJobHTTPLifecycle(t *testing.T) {
	srv, _ := newJobServer(t)
	st := postJob(t, srv, sweepJob())
	if st.ID == "" {
		t.Fatalf("submit returned %+v", st)
	}
	done := waitDone(t, srv, st.ID)
	if done.Store == nil || done.Store.Misses == 0 {
		t.Errorf("first async run stats = %+v", done.Store)
	}

	// Result artifact.
	req := httptest.NewRequest("GET", "/v1/jobs/"+st.ID+"/result", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("result status %d", rec.Code)
	}
	var res sweep.Result
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatalf("result does not parse: %v", err)
	}
	if len(res.Points) != 2 {
		t.Errorf("result has %d points", len(res.Points))
	}

	// Stream: the finished job replays its whole point log as NDJSON.
	req = httptest.NewRequest("GET", "/v1/jobs/"+st.ID+"/stream", nil)
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("stream status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream content type %q", ct)
	}
	lines := 0
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		var p sweep.Point
		if err := json.Unmarshal(sc.Bytes(), &p); err != nil {
			t.Fatalf("stream line does not parse: %v", err)
		}
		lines++
	}
	if lines != 2 {
		t.Errorf("stream produced %d lines, want 2", lines)
	}

	// Listing includes the job.
	req = httptest.NewRequest("GET", "/v1/jobs", nil)
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	var list []Status
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != st.ID {
		t.Errorf("list = %+v", list)
	}

	// Resubmitting the same spec reports the existing (done) job and
	// does not re-run it.
	again := postJob(t, srv, sweepJob())
	if again.ID != st.ID || again.State != StateDone {
		t.Errorf("resubmit = %+v", again)
	}
}

func TestJobHTTPErrors(t *testing.T) {
	srv, _ := newJobServer(t)
	for _, tc := range []struct {
		method, path, body string
		want               int
	}{
		{"POST", "/v1/jobs", "{nope", http.StatusBadRequest},
		{"POST", "/v1/jobs", `{"bogus": 1}`, http.StatusBadRequest},
		{"POST", "/v1/jobs", `{}`, http.StatusUnprocessableEntity},
		{"GET", "/v1/jobs/jdeadbeef", "", http.StatusNotFound},
		{"GET", "/v1/jobs/jdeadbeef/result", "", http.StatusNotFound},
		{"GET", "/v1/jobs/jdeadbeef/stream", "", http.StatusNotFound},
	} {
		var body *strings.Reader
		if tc.body != "" {
			body = strings.NewReader(tc.body)
		} else {
			body = strings.NewReader("")
		}
		req := httptest.NewRequest(tc.method, tc.path, body)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != tc.want {
			t.Errorf("%s %s -> %d, want %d: %s", tc.method, tc.path, rec.Code, tc.want, rec.Body.String())
		}
	}
}

// TestServeDecodeErrorEnvelopes pins the 400 body every POST route of a
// full server answers for an undecodable request: a strict-decoding
// rejection and a body past the 8 MiB request cap. A spec that sets a
// removed field — a sweep's warm_start or an exploration's strategy, bare
// or inside a job — is such a rejection, and explore.DecodeSpec (the
// CLI's -spec reader) rejects the strategy field the same way.
func TestServeDecodeErrorEnvelopes(t *testing.T) {
	srv, _ := newJobServer(t)
	explore.Attach(srv)
	oversized := `{"name":"` + strings.Repeat("a", 8<<20) + `"}`
	unknown := func(field string) string {
		return `{"error":"decoding request: json: unknown field \"` + field + `\""}` + "\n"
	}
	const strategy = `{"name":"s","budget":50,"strategy":"grid"}`
	const warmStart = `{"name":"w","budget":50,"warm_start":true}`
	removed := map[string][]struct{ body, field string }{
		"/v1/sweep":   {{warmStart, "warm_start"}},
		"/v1/explore": {{strategy, "strategy"}},
		"/v1/jobs":    {{`{"sweep":` + warmStart + `}`, "warm_start"}, {`{"explore":` + strategy + `}`, "strategy"}},
	}
	for _, route := range []string{"/v1/sweep", "/v1/study", "/v1/explore", "/v1/jobs"} {
		cases := []struct{ body, want string }{
			{`{"bogus": 1}`, unknown("bogus")},
			{oversized, `{"error":"decoding request: http: request body too large"}` + "\n"},
		}
		for _, r := range removed[route] {
			cases = append(cases, struct{ body, want string }{r.body, unknown(r.field)})
		}
		for _, c := range cases {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest("POST", route, strings.NewReader(c.body)))
			if rec.Code != http.StatusBadRequest || rec.Body.String() != c.want {
				t.Errorf("%s: status %d body %q, want 400 %q", route, rec.Code, rec.Body.String(), c.want)
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Errorf("%s: content type %q", route, ct)
			}
		}
	}
	const want = `explore: decoding spec: json: unknown field "strategy"`
	if _, err := explore.DecodeSpec(strings.NewReader(strategy)); err == nil || err.Error() != want {
		t.Errorf("explore.DecodeSpec: err %v, want %q", err, want)
	}
}

// getJSON serves one GET and decodes its 200 body into v.
func getJSON(t *testing.T, srv *sweep.Server, path string, v any) {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s status %d: %s", path, rec.Code, rec.Body.String())
	}
	if err := json.Unmarshal(rec.Body.Bytes(), v); err != nil {
		t.Fatal(err)
	}
}

// TestJobStatusPollsWhileRunning polls an async job's status and the
// job list while the job runs, as a client would: its progress, served
// from the run's in-memory status, never goes backwards, and the last
// poll equals the status the manager reports once the run is over.
func TestJobStatusPollsWhileRunning(t *testing.T) {
	// Slow each point so the run outlasts many polls.
	t.Setenv("PHOTOLOOP_JOB_POINT_DELAY", "30ms")
	srv, m := newJobServer(t)
	sp := sweepJob()
	sp.Sweep.Axes[0].Values = []any{3, 5, 7, 9}
	id := postJob(t, srv, sp).ID

	var last Status
	lastDone, midRun := 0, false
	observe := func(st Status) {
		if st.Done < lastDone {
			t.Fatalf("done went backwards: %d after %d (%+v)", st.Done, lastDone, st)
		}
		lastDone = st.Done
		if st.State == StateRunning && st.Done > 0 && st.Done < st.Total {
			midRun = true
		}
		last = st
	}
	deadline := time.Now().Add(30 * time.Second)
	for last.State != StateDone {
		if time.Now().After(deadline) {
			t.Fatalf("job did not finish in time: %+v", last)
		}
		var st Status
		getJSON(t, srv, "/v1/jobs/"+id, &st)
		observe(st)
		var list []Status
		getJSON(t, srv, "/v1/jobs", &list)
		if len(list) != 1 || list[0].ID != id {
			t.Fatalf("list = %+v", list)
		}
		observe(list[0])
		if last.State == StateFailed {
			t.Fatalf("job failed: %s", last.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !midRun {
		t.Error("no poll saw the job running part way through")
	}
	// The runner may still be retiring the job; wait for it to go.
	for m.runningChan(id) != nil {
		time.Sleep(time.Millisecond)
	}
	want, err := m.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&last, want) {
		t.Errorf("last poll = %+v, manager status = %+v", last, *want)
	}
}
