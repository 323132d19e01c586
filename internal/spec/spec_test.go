package spec

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"photoloop/internal/arch"
	"photoloop/internal/mapping"
	"photoloop/internal/model"
	"photoloop/internal/workload"
)

// buildArch parses and builds an architecture document the way the CLI
// does: ParseArchSpec, then Build.
func buildArch(doc string) (*arch.Arch, error) {
	s, err := ParseArchSpec(strings.NewReader(doc))
	if err != nil {
		return nil, err
	}
	return s.Build()
}

// buildMapping parses a mapping document and builds it for a.
func buildMapping(doc string, a *arch.Arch) (*mapping.Mapping, error) {
	s, err := ParseMappingSpec(strings.NewReader(doc))
	if err != nil {
		return nil, err
	}
	return s.Build(a)
}

func TestTemplateBuilds(t *testing.T) {
	a, err := buildArch(Template)
	if err != nil {
		t.Fatal(err)
	}
	if a.Name != "mini-photonic" {
		t.Errorf("name = %s", a.Name)
	}
	if a.NumLevels() != 5 {
		t.Errorf("levels = %d", a.NumLevels())
	}
	if got := a.PeakMACsPerCycle(); got != 4*8*3*9 {
		t.Errorf("peak = %d, want %d", got, 4*8*3*9)
	}
	if gaps := a.DomainGaps(); len(gaps) != 0 {
		t.Errorf("template has domain gaps: %v", gaps)
	}
}

func TestTemplateEvaluates(t *testing.T) {
	a, err := buildArch(Template)
	if err != nil {
		t.Fatal(err)
	}
	l := workload.NewConv("conv", 1, 6, 8, 8, 8, 3, 3, 1, 1)
	mspec := MappingSpec{Levels: []MappingLevelSpec{
		{Temporal: map[string]int{}},
		{Temporal: map[string]int{"K": 2, "C": 2, "P": 8}, Perm: []string{"K", "C", "N", "P", "Q", "R", "S"}},
		{},
		{},
		{},
	}}
	m, err := mspec.Build(a)
	if err != nil {
		t.Fatal(err)
	}
	res, err := model.Evaluate(a, &l, m, model.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.PJPerMAC() <= 0 {
		t.Error("bad energy")
	}
}

// TestArchSpecRoundTrip: template -> parse -> re-marshal -> parse must be
// stable — the parsed documents deep-equal, the re-marshaled bytes
// reproduce themselves, and both documents build fingerprint-identical
// architectures. This is what lets tools (the sweep's variant expansion,
// config generators) treat ArchSpec as a faithful interchange form.
func TestArchSpecRoundTrip(t *testing.T) {
	first, err := ParseArchSpec(strings.NewReader(Template))
	if err != nil {
		t.Fatal(err)
	}
	remarshaled, err := json.Marshal(first)
	if err != nil {
		t.Fatal(err)
	}
	second, err := ParseArchSpec(bytes.NewReader(remarshaled))
	if err != nil {
		t.Fatalf("re-marshaled template does not parse: %v", err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("round trip changed the document:\nfirst:  %+v\nsecond: %+v", first, second)
	}
	again, err := json.Marshal(second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(remarshaled, again) {
		t.Errorf("re-marshaling is not a fixed point:\n%s\nvs\n%s", remarshaled, again)
	}
	a1, err := first.Build()
	if err != nil {
		t.Fatal(err)
	}
	a2, err := second.Build()
	if err != nil {
		t.Fatal(err)
	}
	if a1.Fingerprint() != a2.Fingerprint() {
		t.Error("round-tripped spec builds a different architecture")
	}
}

func TestMappingSpecRoundTrip(t *testing.T) {
	doc := `{"levels":[{"temporal":{"K":2,"P":8},"perm":["K","C","N","P","Q","R","S"]},{},{},{},{}]}`
	first, err := ParseMappingSpec(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	remarshaled, err := json.Marshal(first)
	if err != nil {
		t.Fatal(err)
	}
	second, err := ParseMappingSpec(bytes.NewReader(remarshaled))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("mapping round trip changed the document")
	}
	a, err := buildArch(Template)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := first.Build(a)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := second.Build(a)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Fingerprint() != m2.Fingerprint() {
		t.Error("round-tripped mapping differs")
	}
}

// TestErrorsNameJSONPath: build failures must point at the offending JSON
// path so users can fix multi-hundred-line documents.
func TestErrorsNameJSONPath(t *testing.T) {
	cases := []struct {
		name, doc, wantPath string
	}{
		{"bad component class", `{
			"name": "x", "clock_ghz": 1, "default_word_bits": 8,
			"components": [{"class": "sram", "name": "ok", "params": {"capacity_bits": 8, "access_bits": 8}},
			               {"class": "flux", "name": "F"}],
			"levels": [{"name": "D", "keeps": ["Weights","Inputs","Outputs"]}],
			"compute": {"name": "c"}
		}`, `components[1] (F)`},
		{"bad level domain", `{
			"name": "x", "clock_ghz": 1, "default_word_bits": 8, "components": [],
			"levels": [{"name": "D", "keeps": ["Weights","Inputs","Outputs"]},
			           {"name": "E", "domain": "XY", "keeps": ["Weights","Inputs","Outputs"]}],
			"compute": {"name": "c"}
		}`, `levels[1] (E).domain`},
		{"bad keeps", `{
			"name": "x", "clock_ghz": 1, "default_word_bits": 8, "components": [],
			"levels": [{"name": "D", "keeps": ["Psums"]}],
			"compute": {"name": "c"}
		}`, `levels[0] (D).keeps`},
		{"bad spatial dim", `{
			"name": "x", "clock_ghz": 1, "default_word_bits": 8, "components": [],
			"levels": [{"name": "D", "keeps": ["Weights","Inputs","Outputs"],
				"spatial": [{"count": 2, "dims": ["K"]}, {"count": 2, "dims": ["Z"]}]}],
			"compute": {"name": "c"}
		}`, `levels[0] (D).spatial[1]`},
		{"bad fill_via", `{
			"name": "x", "clock_ghz": 1, "default_word_bits": 8, "components": [],
			"levels": [{"name": "D", "keeps": ["Weights","Inputs","Outputs"],
				"fill_via": {"Weights": [{"component": "", "action": ""}]}}],
			"compute": {"name": "c"}
		}`, `levels[0] (D).fill_via`},
		{"bad compute domain", `{
			"name": "x", "clock_ghz": 1, "default_word_bits": 8, "components": [],
			"levels": [{"name": "D", "keeps": ["Weights","Inputs","Outputs"]}],
			"compute": {"name": "c", "domain": "QQ"}
		}`, `compute.domain`},
	}
	for _, c := range cases {
		_, err := buildArch(c.doc)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.wantPath) {
			t.Errorf("%s: error %q does not name path %q", c.name, err, c.wantPath)
		}
	}

	a, err := buildArch(Template)
	if err != nil {
		t.Fatal(err)
	}
	_, err = buildMapping(`{"levels":[{},{"temporal":{"Z":2}},{},{},{}]}`, a)
	if err == nil || !strings.Contains(err.Error(), "levels[1].temporal") {
		t.Errorf("mapping error %q does not name levels[1].temporal", err)
	}
}

func TestDecodeArchRejectsBadSpecs(t *testing.T) {
	cases := []struct {
		name string
		doc  string
	}{
		{"garbage", `{"bogus": 1}`},
		{"unknown component class", `{
			"name": "x", "clock_ghz": 1, "default_word_bits": 8,
			"components": [{"class": "flux", "name": "F"}],
			"levels": [{"name": "D", "keeps": ["Weights","Inputs","Outputs"]}],
			"compute": {"name": "c"}
		}`},
		{"unknown domain", `{
			"name": "x", "clock_ghz": 1, "default_word_bits": 8,
			"components": [],
			"levels": [{"name": "D", "domain": "XY", "keeps": ["Weights","Inputs","Outputs"]}],
			"compute": {"name": "c"}
		}`},
		{"unknown tensor", `{
			"name": "x", "clock_ghz": 1, "default_word_bits": 8,
			"components": [],
			"levels": [{"name": "D", "keeps": ["Psums"]}],
			"compute": {"name": "c"}
		}`},
		{"unknown dim", `{
			"name": "x", "clock_ghz": 1, "default_word_bits": 8,
			"components": [],
			"levels": [{"name": "D", "keeps": ["Weights","Inputs","Outputs"],
				"spatial": [{"count": 2, "dims": ["Z"]}]}],
			"compute": {"name": "c"}
		}`},
		{"bad converter ref", `{
			"name": "x", "clock_ghz": 1, "default_word_bits": 8,
			"components": [],
			"levels": [{"name": "D", "keeps": ["Weights","Inputs","Outputs"],
				"fill_via": {"Weights": [{"component": "", "action": ""}]}}],
			"compute": {"name": "c"}
		}`},
	}
	for _, c := range cases {
		if _, err := buildArch(c.doc); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestDecodeMappingErrors(t *testing.T) {
	a, err := buildArch(Template)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := buildMapping(`{"levels":[{}]}`, a); err == nil {
		t.Error("wrong level count accepted")
	}
	if _, err := buildMapping(`{"levels":[{"temporal":{"Z":2}},{},{},{},{}]}`, a); err == nil {
		t.Error("unknown dim accepted")
	}
	if _, err := buildMapping(`not json`, a); err == nil {
		t.Error("garbage accepted")
	}
}
