package fidelity

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// specSeeds feeds both the in-process fuzz seeds and the committed corpus
// under testdata/fuzz/ (regenerated by TestWriteFuzzCorpus with
// UPDATE_FUZZ_CORPUS=1).
func specSeeds() [][]byte {
	return [][]byte{
		[]byte(`{}`),
		[]byte(`{"temperature_k":300,"responsivity_a_per_w":1,"load_ohms":10000,"received_power_mw":0.05,"bandwidth_ghz":5,"reference_bits":8}`),
		[]byte(`{"noiseless":true}`),
		[]byte(`{"reference_bits":65}`),
		[]byte(`{"received_power_mw":-1}`),
		[]byte(`{"bandwidth_ghz":1e999}`),
		[]byte(`{"unknown_field":1}`),
		[]byte(`{"temperature_k":`),
		[]byte(``),
	}
}

// TestWriteFuzzCorpus regenerates the committed seed corpus under
// testdata/fuzz/ when UPDATE_FUZZ_CORPUS=1 is set; otherwise it verifies
// it exists.
func TestWriteFuzzCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzParseFidelitySpec")
	if os.Getenv("UPDATE_FUZZ_CORPUS") == "1" {
		if err := os.MkdirAll(dir, 0o777); err != nil {
			t.Fatal(err)
		}
		for i, s := range specSeeds() {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", s)
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%d", i)), []byte(body), 0o666); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) == 0 {
		t.Fatalf("FuzzParseFidelitySpec seed corpus missing (rerun with UPDATE_FUZZ_CORPUS=1): %v", err)
	}
}

// FuzzParseFidelitySpec drives arbitrary documents through the strict
// decode every surface applies to a fidelity spec (unknown fields are
// errors, then Validate): it must never panic, and every accepted document
// must re-encode canonically — decode -> marshal -> decode -> marshal is
// byte-identical, the idempotence the job engine's content addressing
// (jobs are named by a hash of their canonical spec JSON) relies on.
func FuzzParseFidelitySpec(f *testing.F) {
	for _, s := range specSeeds() {
		f.Add(s)
	}
	decode := func(data []byte) (*Spec, error) {
		var s Spec
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&s); err != nil {
			return nil, err
		}
		return &s, s.Validate()
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := decode(data)
		if err != nil {
			return
		}
		enc, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("accepted spec failed to encode: %v", err)
		}
		s2, err := decode(enc)
		if err != nil {
			t.Fatalf("canonical encoding rejected by its own decoder: %v\n%s", err, enc)
		}
		enc2, err := json.Marshal(s2)
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding not canonical:\n first %s\nsecond %s", enc, enc2)
		}
	})
}
