package shard

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"photoloop/internal/store"
	"photoloop/internal/sweep"
)

// maxUploadBytes bounds one result-upload POST body. The persister's
// batching keeps real uploads far below this; the cap only stops a
// corrupted length from buffering unbounded input.
const maxUploadBytes = 64 << 20

// AttachResults mounts the shared-nothing result exchange next to the
// lease endpoints — the coordinator half of store.RemotePersister:
//
//	POST /v1/jobs/{id}/results            upload a frame batch (store.EncodeFrames body)
//	GET  /v1/jobs/{id}/keys               warm-key bloom digest (store.KeyDigest body)
//	GET  /v1/jobs/{id}/results/{key}      fetch one result (its stored EncodeBest payload; 404: absent)
//
// Records are content-addressed, so the store is job-agnostic: the {id}
// path segment keeps the routes under the job tree, but an upload is
// valid whatever job produced it, and duplicate or out-of-order uploads
// deduplicate first-write-wins in the coordinator's single log. An
// upload is verified whole, then its records are appended and later
// served as the bytes the computing process encoded; the coordinator
// never re-encodes a result. A batch that fails to decode whole — bad
// magic, torn record, CRC mismatch, non-canonical payload, trailing
// bytes — is rejected with 400 and nothing is appended: a truncated POST
// can never land partially.
func AttachResults(mount func(pattern string, h http.Handler), st *store.Store) {
	mount("POST /v1/jobs/{id}/results", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(io.LimitReader(r.Body, maxUploadBytes+1))
		if err != nil {
			sweep.WriteHTTPError(w, http.StatusBadRequest, fmt.Errorf("shard: reading upload: %w", err))
			return
		}
		if len(body) > maxUploadBytes {
			sweep.WriteHTTPError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("shard: upload exceeds %d bytes", maxUploadBytes))
			return
		}
		recs, err := store.DecodeFrames(body)
		if err != nil {
			sweep.WriteHTTPError(w, http.StatusBadRequest, err)
			return
		}
		// First-write-wins: a key already present is a no-op, so the
		// retried upload after a lost 200 appends nothing twice, and a disk
		// failure mid-batch leaves a prefix that the retry dedupes.
		if err := st.Append(recs...); err != nil {
			sweep.WriteHTTPError(w, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]int{"accepted": len(recs)})
	}))
	mount("GET /v1/jobs/{id}/keys", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(st.Digest().Encode())
	}))
	mount("GET /v1/jobs/{id}/results/{key}", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		k, ok := store.ParseKeyHex(r.PathValue("key"))
		if !ok {
			sweep.WriteHTTPError(w, http.StatusBadRequest, fmt.Errorf("shard: malformed result key %q", r.PathValue("key")))
			return
		}
		payload, ok := st.Payload(k)
		if !ok {
			// A bloom false positive in the worker's digest: it recomputes.
			sweep.WriteHTTPError(w, http.StatusNotFound, fmt.Errorf("shard: result %s not in store", r.PathValue("key")))
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(payload)
	}))
}
