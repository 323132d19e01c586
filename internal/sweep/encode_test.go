package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// stdlibIndent is the layout EncodeResponseJSON must reproduce: an
// encoding/json Encoder with two-space indentation.
func stdlibIndent(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// checkEncodesLikeStdlib fails unless EncodeResponseJSON writes exactly
// stdlibIndent's bytes for v, or fails exactly when it fails.
func checkEncodesLikeStdlib(t *testing.T, name string, v any) {
	t.Helper()
	want, wantErr := stdlibIndent(v)
	var got bytes.Buffer
	gotErr := EncodeResponseJSON(&got, v)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%s: error %v, stdlib error %v", name, gotErr, wantErr)
	}
	if wantErr == nil && !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("%s: encoding differs from the stdlib indenter\n got: %q\nwant: %q", name, got.Bytes(), want)
	}
}

// TestEncodeResponseJSONMatchesEncoder pins the indenter's layout against
// the stdlib encoder on the shapes it special-cases (empty containers,
// null slices, escapes, exponent floats, raw messages with whitespace)
// and on every response of serve-mixed's hot set.
func TestEncodeResponseJSONMatchesEncoder(t *testing.T) {
	type withNil struct {
		Slice []int          `json:"slice"`
		Map   map[string]int `json:"map"`
		Omit  []int          `json:"omit,omitempty"`
		Empty []int          `json:"empty"`
	}
	cases := map[string]any{
		"empty object":    map[string]any{},
		"empty array":     []any{},
		"nested empty":    map[string]any{"a": []any{map[string]any{}, []any{}, map[string]any{"b": []any{}}}, "c": map[string]any{}},
		"null slices":     withNil{Empty: []int{}},
		"strings":         []string{`quote " backslash \ `, "<>&", "line\u2028sep\u2029", "invalid \xff utf-8", "", ":,{}[]", "tab\tnew\nline"},
		"escaped key":     map[string]int{`k"e\y:`: 1, "<a>": 2},
		"exponent floats": []float64{1e-7, 1e21, -0.0, 1.5e300, 5e-324, 123456789},
		"scalars":         []any{nil, true, false, -1, "x"},
		"top-level num":   1e21,
		"top-level str":   "s",
		"top-level null":  nil,
		"raw message":     struct{ Raw json.RawMessage }{json.RawMessage(" { \"a\" : [ 1 , { } , [ ] ] , \"b\\u0022\" : \"<\\\\\" } ")},
	}
	// Past the indentation one append writes.
	var deep any = 1
	for range 40 {
		deep = []any{deep, map[string]any{"k": []any{}}}
	}
	cases["deep"] = deep
	for name, v := range cases {
		checkEncodesLikeStdlib(t, name, v)
	}
	if testing.Short() {
		return
	}
	for i, c := range warmHitCases {
		c.Budget, c.Seed, c.Workers = 30, int64(i+1), 1
		resp, err := Eval(&c, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkEncodesLikeStdlib(t, fmt.Sprintf("%s %s %s", c.Preset, c.Network, c.Objective), resp)
	}
}

// encodeSeeds feeds both the in-process fuzz seeds and the committed
// corpus under testdata/fuzz/ (regenerated by TestWriteFuzzCorpus with
// UPDATE_FUZZ_CORPUS=1).
func encodeSeeds() [][]byte {
	return [][]byte{
		[]byte(`{}`),
		[]byte(`[]`),
		[]byte(`{"a":[{},[],{"b":[]}],"c":{}}`),
		[]byte(` [ 1 , { "k" : null } , [ [ ] ] ] `),
		[]byte(`{"s":"\"\\<>&\u2028\u0022\/","n":-0,"e":1e-7,"big":1e21}`),
		[]byte("\"invalid \xff utf-8\""),
		[]byte(`[true,false,null,"",0.5,-12e+3]`),
		[]byte(`"\ud800"`),
		[]byte(`1e400`),
		[]byte(`{"a":`),
	}
}

// TestWriteFuzzCorpus regenerates the committed seed corpus under
// testdata/fuzz/ when UPDATE_FUZZ_CORPUS=1 is set; otherwise it verifies
// it exists.
func TestWriteFuzzCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzEncodeResponseJSON")
	if os.Getenv("UPDATE_FUZZ_CORPUS") == "1" {
		if err := os.MkdirAll(dir, 0o777); err != nil {
			t.Fatal(err)
		}
		for i, s := range encodeSeeds() {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", s)
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%d", i)), []byte(body), 0o666); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) == 0 {
		t.Fatalf("FuzzEncodeResponseJSON seed corpus missing (rerun with UPDATE_FUZZ_CORPUS=1): %v", err)
	}
}

// FuzzEncodeResponseJSON checks the indenter against the stdlib encoder
// on arbitrary valid documents: decoded into a Go value, and verbatim as
// a json.RawMessage field, so arbitrary escapes, whitespace and invalid
// UTF-8 inside strings reach the indenter.
func FuzzEncodeResponseJSON(f *testing.F) {
	for _, s := range encodeSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if !json.Valid(data) {
			return
		}
		var v any
		if err := json.Unmarshal(data, &v); err == nil {
			checkEncodesLikeStdlib(t, "decoded", v)
		}
		checkEncodesLikeStdlib(t, "raw", struct {
			Raw  json.RawMessage `json:"raw"`
			Tail []int           `json:"tail"`
		}{Raw: data})
	})
}
