package spec

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// archSeeds and mappingSeeds feed both the in-process fuzz seeds and the
// committed corpora under testdata/fuzz/ (regenerated by
// TestWriteFuzzCorpus with UPDATE_FUZZ_CORPUS=1).
func archSeeds() [][]byte {
	return [][]byte{
		[]byte(Template),
		[]byte(`{}`),
		[]byte(`{"name":"x","clock_ghz":1,"levels":[{"name":"L","domain":"DE","keeps":["Weights","Inputs","Outputs"]}]}`),
		[]byte(`{"name":"x","levels":[{"name":`),
		[]byte(`{"unknown_field":1}`),
		[]byte(``),
	}
}

func mappingSeeds() [][]byte {
	return [][]byte{
		[]byte(`{"levels":[{"temporal":{"K":2,"C":2,"P":8},"perm":["K","C","N","P","Q","R","S"]},{},{},{},{}]}`),
		[]byte(`{"levels":[]}`),
		[]byte(`{"levels":[{"temporal":{"ZZ":-1}}]}`),
		[]byte(`{"levels":[{"spatial_choice":["K","bogus"]},{"free_spatial":{"Q":0}}]}`),
		[]byte(``),
	}
}

// TestWriteFuzzCorpus regenerates the committed seed corpora under
// testdata/fuzz/ when UPDATE_FUZZ_CORPUS=1 is set; otherwise it verifies
// they exist.
func TestWriteFuzzCorpus(t *testing.T) {
	targets := map[string][][]byte{
		"FuzzParseArchSpec":    archSeeds(),
		"FuzzParseMappingSpec": mappingSeeds(),
	}
	for name, seeds := range targets {
		dir := filepath.Join("testdata", "fuzz", name)
		if os.Getenv("UPDATE_FUZZ_CORPUS") == "1" {
			if err := os.MkdirAll(dir, 0o777); err != nil {
				t.Fatal(err)
			}
			for i, s := range seeds {
				body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", s)
				if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%d", i)), []byte(body), 0o666); err != nil {
					t.Fatal(err)
				}
			}
			continue
		}
		if entries, err := os.ReadDir(dir); err != nil || len(entries) == 0 {
			t.Fatalf("%s seed corpus missing (rerun with UPDATE_FUZZ_CORPUS=1): %v", name, err)
		}
	}
}

// FuzzParseArchSpec drives arbitrary documents through the architecture
// parser and, when one parses, through Build: neither may panic on any
// input. The parser is the service's untrusted-input boundary (sweep and
// job specs embed raw architecture documents), so "reject, never crash"
// is a hard requirement. Seeds cover the shipped template, a minimal
// document, and near-miss malformed JSON.
func FuzzParseArchSpec(f *testing.F) {
	for _, s := range archSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseArchSpec(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A parsed document may still be invalid; Build must say so with
		// an error, not a panic.
		_, _ = s.Build()
	})
}

// FuzzParseMappingSpec drives arbitrary documents through the mapping
// parser and builds accepted ones against the template architecture:
// neither step may panic.
func FuzzParseMappingSpec(f *testing.F) {
	for _, s := range mappingSeeds() {
		f.Add(s)
	}
	a, err := buildArch(Template)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseMappingSpec(bytes.NewReader(data))
		if err != nil {
			return
		}
		_, _ = s.Build(a)
	})
}
