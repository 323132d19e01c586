package store

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"photoloop/internal/mapper"
)

// TestRemotePersisterDropsUploadedResults bounds a long-lived worker's
// memory: a result stays in the persister only until its upload is
// acknowledged, so after every auto-flush at most the pending batch is
// held and after a final Flush nothing is.
func TestRemotePersisterDropsUploadedResults(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs/j1/results", func(w http.ResponseWriter, r *http.Request) {})
	mux.HandleFunc("GET /v1/jobs/j1/keys", http.NotFound)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	r := NewRemotePersister(srv.URL, nil)
	if err := r.Begin(context.Background(), "j1"); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 3*remoteBatchRecords; i++ {
		k := mapper.Key{Arch: rng.Uint64(), Layer: rng.Uint64(), Opts: rng.Uint64()}
		if err := r.Store(k, randomBest(rng)); err != nil {
			t.Fatal(err)
		}
		if len(r.local) > len(r.pending) {
			t.Fatalf("after %d stores: %d results held, only %d pending upload", i+1, len(r.local), len(r.pending))
		}
	}
	if err := r.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(r.local) != 0 {
		t.Errorf("%d results held after every upload was acknowledged", len(r.local))
	}
	if s := r.Stats(); s.Uploaded != 3*remoteBatchRecords {
		t.Errorf("uploaded %d results, want %d", s.Uploaded, 3*remoteBatchRecords)
	}
}
