package explore

import (
	"encoding/json"
	"fmt"
	"io"

	"photoloop/internal/sweep"
)

// DecodeSpec parses an exploration spec document strictly (unknown fields
// are errors), as `photoloop explore -spec` does and sweep.DecodeBody
// does for POST /v1/explore.
func DecodeSpec(r io.Reader) (Spec, error) {
	var sp Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		return Spec{}, fmt.Errorf("explore: decoding spec: %w", err)
	}
	return sp, nil
}

// Attach mounts POST /v1/explore on a sweep server: the request body is a
// Spec, the response a Frontier (JSON, or CSV/markdown with ?format=).
// It is one sweep.HandleRun registration, so explorations share the
// server's request policy, process-wide search cache and heavy-run
// admission — an exploration and a sweep never oversubscribe the machine
// together.
func Attach(s *sweep.Server) {
	s.Mount("POST /v1/explore", sweep.HandleRun(s, "explore", Run))
}
