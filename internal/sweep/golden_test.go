package sweep

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"photoloop/internal/fidelity"
	"photoloop/internal/spec"
)

// goldenEvalCase is one pinned /v1/eval request.
type goldenEvalCase struct {
	name string
	req  EvalRequest
}

// goldenEvalCases is the request matrix TestEvalResponseGolden pins: every
// base kind, the layer and batch filters, fidelity on and off, and fixed
// mappings — plus rejected requests, whose error text is part of the API.
func goldenEvalCases(t *testing.T) []goldenEvalCase {
	t.Helper()
	var tmpl spec.ArchSpec
	if err := json.Unmarshal([]byte(spec.Template), &tmpl); err != nil {
		t.Fatal(err)
	}
	fixed := &spec.MappingSpec{Levels: []spec.MappingLevelSpec{
		{Temporal: map[string]int{"N": 2, "K": 6, "C": 16, "P": 8, "Q": 8, "R": 3, "S": 3}},
		{Temporal: map[string]int{"K": 2, "C": 2}, Perm: []string{"K", "C", "N", "P", "Q", "R", "S"}},
		{},
		{},
		{},
	}}
	search := func(r EvalRequest) EvalRequest {
		r.Budget, r.Seed, r.Workers = 40, 1, 1
		return r
	}
	return []goldenEvalCase{
		{"albireo", search(EvalRequest{Preset: "albireo", Network: "alexnet"})},
		{"albireo-fidelity", search(EvalRequest{Preset: "albireo", Network: "alexnet", Fidelity: &fidelity.Spec{}})},
		{"aggressive-layer-batch", search(EvalRequest{
			Albireo: &AlbireoBase{Scaling: "aggressive"}, Network: "alexnet",
			Layer: "conv2", Batch: 4, Objective: "delay",
		})},
		{"template-arch", search(EvalRequest{Arch: &tmpl, Network: "alexnet", Objective: "edp"})},
		{"electrical-baseline", search(EvalRequest{Preset: "electrical-baseline", Network: "alexnet"})},
		{"adc-lean-mobilenet", search(EvalRequest{Preset: "albireo-adc-lean", Network: "mobilenet_v2"})},
		{"fixed-mapping", EvalRequest{Arch: &tmpl, Inline: tinyNet(), Mapping: fixed}},
		{"fixed-mapping-layer-fidelity", EvalRequest{
			Arch: &tmpl, Inline: tinyNet(), Layer: "fc", Batch: 2,
			Mapping: fixed, Fidelity: &fidelity.Spec{},
		}},
		{"err-no-base", EvalRequest{Network: "alexnet"}},
		{"err-two-bases", EvalRequest{Preset: "albireo", Albireo: &AlbireoBase{}, Network: "alexnet"}},
		{"err-unknown-preset", EvalRequest{Preset: "nope", Network: "alexnet"}},
		{"err-unknown-scaling", EvalRequest{Albireo: &AlbireoBase{Scaling: "nope"}, Network: "alexnet"}},
		{"err-unknown-network", EvalRequest{Preset: "albireo", Network: "nope"}},
		{"err-no-network", EvalRequest{Preset: "albireo"}},
		{"err-network-and-inline", EvalRequest{Preset: "albireo", Network: "alexnet", Inline: tinyNet()}},
		{"err-unknown-layer", EvalRequest{Preset: "albireo", Network: "alexnet", Layer: "nope"}},
		{"err-unknown-objective", EvalRequest{Preset: "albireo", Network: "alexnet", Objective: "nope"}},
		{"err-mapping-undercovers", EvalRequest{
			Arch: &tmpl, Inline: tinyNet(), Mapping: &spec.MappingSpec{Levels: make([]spec.MappingLevelSpec, 5)},
		}},
		{"err-mapping-levels", EvalRequest{Arch: &tmpl, Inline: tinyNet(), Mapping: &spec.MappingSpec{}}},
	}
}

// TestEvalResponseGolden pins the EvalResponse JSON (and the error text of
// rejected requests) for goldenEvalCases byte for byte. The golden file
// was generated once and is never regenerated: any drift is a behavior
// change of `photoloop eval` / POST /v1/eval.
func TestEvalResponseGolden(t *testing.T) {
	var got bytes.Buffer
	for _, c := range goldenEvalCases(t) {
		got.WriteString("## " + c.name + "\n")
		resp, err := Eval(&c.req, nil)
		if err != nil {
			got.WriteString("error: " + err.Error() + "\n")
			continue
		}
		if err := EncodeResponseJSON(&got, resp); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(filepath.Join("testdata", "eval_golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		gotLines := bytes.Split(got.Bytes(), []byte("\n"))
		wantLines := bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
			var g, w []byte
			if i < len(gotLines) {
				g = gotLines[i]
			}
			if i < len(wantLines) {
				w = wantLines[i]
			}
			if !bytes.Equal(g, w) {
				t.Fatalf("eval responses drifted from testdata/eval_golden.txt at line %d:\n got: %s\nwant: %s", i+1, g, w)
			}
		}
	}
}
