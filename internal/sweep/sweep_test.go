package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"photoloop/internal/albireo"
	"photoloop/internal/mapper"
	"photoloop/internal/spec"
	"photoloop/internal/workload"
)

// tinyNet is a small two-layer network that keeps searches fast while
// still exercising convolution and FC shapes.
func tinyNet() *workload.Network {
	return &workload.Network{
		Name: "tiny",
		Layers: []workload.Layer{
			workload.NewConv("conv1", 1, 6, 8, 8, 8, 3, 3, 1, 1),
			workload.NewFC("fc", 1, 12, 32),
		},
	}
}

// templateBase parses the spec template into a raw-spec sweep base.
func templateBase(t *testing.T) Base {
	t.Helper()
	var as spec.ArchSpec
	if err := json.Unmarshal([]byte(spec.Template), &as); err != nil {
		t.Fatal(err)
	}
	return Base{Arch: &as}
}

// decodeVariants runs Run's grid check through the evaluator's variant
// decoder and returns every variant in index order. The variants do not
// depend on the workload, so it swaps in one tiny network and the default
// objective (one point per variant).
func decodeVariants(sp Spec) ([]*variant, error) {
	sp.Workloads, sp.Objectives = []Workload{{Inline: tinyNet()}}, nil
	ev, err := NewEvaluator(sp, Options{})
	if err != nil {
		return nil, err
	}
	n, err := ev.numVariants()
	if err != nil {
		return nil, err
	}
	memo := map[int64]*variant{}
	out := make([]*variant, n)
	for i := range out {
		job, err := ev.jobAt(int64(i), memo)
		if err != nil {
			return nil, err
		}
		out[i] = job.variant
	}
	return out, nil
}

func TestExpandCrossProductOrder(t *testing.T) {
	sp := Spec{
		Base: Base{Albireo: &AlbireoBase{Scaling: "aggressive"}},
		Axes: []Axis{
			{Param: "weight_reuse", Values: []any{false, true}},
			{Param: "or_lanes", Values: []any{1, 5}},
			{Param: "output_lanes", Values: []any{3.0, 9.0}}, // JSON-style floats coerce
		},
	}
	variants, err := decodeVariants(sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(variants) != 8 {
		t.Fatalf("got %d variants, want 8", len(variants))
	}
	// First axis most significant: wr=false for the first four.
	for i, want := range []string{
		"weight_reuse=false or_lanes=1 output_lanes=3",
		"weight_reuse=false or_lanes=1 output_lanes=9",
		"weight_reuse=false or_lanes=5 output_lanes=3",
		"weight_reuse=false or_lanes=5 output_lanes=9",
		"weight_reuse=true or_lanes=1 output_lanes=3",
	} {
		if variants[i].label != want {
			t.Errorf("variant %d label %q, want %q", i, variants[i].label, want)
		}
	}
	last := variants[7]
	if !last.albireo.WeightReuse || last.albireo.ORLanes != 5 || last.albireo.OutputLanes != 9 {
		t.Errorf("last variant config %+v wrong", last.albireo)
	}
	if last.albireo.Scaling != albireo.Aggressive {
		t.Errorf("base scaling not applied: %v", last.albireo.Scaling)
	}
	if v, ok := last.params["output_lanes"].(int); !ok || v != 9 {
		t.Errorf("float axis value not coerced to int: %#v", last.params["output_lanes"])
	}
}

func TestExpandErrors(t *testing.T) {
	cases := []struct {
		name string
		sp   Spec
		want string
	}{
		{"no base", Spec{}, "exactly one"},
		{"two bases", Spec{Base: Base{Albireo: &AlbireoBase{}, Arch: &spec.ArchSpec{}}}, "exactly one"},
		{"empty axis", Spec{Base: Base{Albireo: &AlbireoBase{}}, Axes: []Axis{{Param: "or_lanes"}}}, "no values"},
		{"unknown albireo param", Spec{Base: Base{Albireo: &AlbireoBase{}},
			Axes: []Axis{{Param: "bogus", Values: []any{1}}}}, "unknown albireo axis"},
		{"bad type", Spec{Base: Base{Albireo: &AlbireoBase{}},
			Axes: []Axis{{Param: "or_lanes", Values: []any{"three"}}}}, "not a int"},
		{"bad scaling", Spec{Base: Base{Albireo: &AlbireoBase{Scaling: "warp"}}}, "unknown scaling"},
	}
	for _, c := range cases {
		if _, err := decodeVariants(c.sp); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want containing %q", c.name, err, c.want)
		}
	}
}

func TestRunValidationErrors(t *testing.T) {
	base := Base{Albireo: &AlbireoBase{}}
	cases := []struct {
		name string
		sp   Spec
		want string
	}{
		{"no workloads", Spec{Base: base}, "no workloads"},
		{"no network", Spec{Base: base, Workloads: []Workload{{}}}, "names no network"},
		{"unknown network", Spec{Base: base, Workloads: []Workload{{Network: "lenet99"}}}, "lenet99"},
		{"bad objective", Spec{Base: base, Workloads: []Workload{{Network: "vgg16"}},
			Objectives: []string{"speed"}}, "unknown objective"},
		{"fused needs albireo", Spec{Base: templateBase(t),
			Workloads: []Workload{{Inline: tinyNet(), Fused: true}}}, "albireo-backed base"},
	}
	for _, c := range cases {
		if _, err := Run(c.sp, Options{}); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want containing %q", c.name, err, c.want)
		}
	}
}

// TestRunMatchesDirectNetwork is the dedupe-safety anchor: a concurrent
// sweep over Albireo variants, with the shared fingerprint cache engaged,
// must be bit-identical to searching each variant's layers directly
// (directNetwork) with no cache.
func TestRunMatchesDirectNetwork(t *testing.T) {
	net := tinyNet()
	sp := Spec{
		Base: Base{Albireo: &AlbireoBase{Scaling: "aggressive"}},
		Axes: []Axis{
			{Param: "weight_reuse", Values: []any{false, true}},
			{Param: "output_lanes", Values: []any{3, 9}},
		},
		Workloads:     []Workload{{Inline: net}},
		Objectives:    []string{"energy"},
		Budget:        120,
		Seed:          1,
		SearchWorkers: 2,
	}
	res, err := Run(sp, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 {
		t.Fatalf("got %d points, want 4", len(res.Points))
	}
	// The result-level funnel rollup must equal the per-point sums, and a
	// seeded search of this size always fully evaluates something.
	var pruned, delta, full int
	for i := range res.Points {
		pruned += res.Points[i].Pruned
		delta += res.Points[i].DeltaEvals
		full += res.Points[i].FullEvals
	}
	if res.Pruned != pruned || res.DeltaEvals != delta || res.FullEvals != full {
		t.Errorf("rollup %d/%d/%d != per-point sums %d/%d/%d",
			res.Pruned, res.DeltaEvals, res.FullEvals, pruned, delta, full)
	}
	if res.FullEvals == 0 {
		t.Error("rollup reports no full evaluations")
	}
	if got := res.PrunedFraction(); got != float64(pruned)/float64(pruned+delta+full) {
		t.Errorf("PrunedFraction() = %v", got)
	}
	i := 0
	for _, wr := range []bool{false, true} {
		for _, lanes := range []int{3, 9} {
			cfg := albireo.Default(albireo.Aggressive)
			cfg.WeightReuse = wr
			cfg.OutputLanes = lanes
			direct := directNetwork(t, cfg, net.WithBatch(1), false,
				mapper.Options{Objective: mapper.MinEnergy, Budget: 120, Seed: 1, Workers: 2})
			p := &res.Points[i]
			if p.TotalPJ != direct.TotalPJ || p.Cycles != direct.Cycles ||
				p.MACs != direct.MACs || p.Utilization != direct.Utilization {
				t.Errorf("point %d (%s): sweep %.9g pJ %.9g cyc, direct %.9g pJ %.9g cyc",
					i, p.Variant, p.TotalPJ, p.Cycles, direct.TotalPJ, direct.Cycles)
			}
			if len(p.Results) == 0 || len(p.Results[0].Energy) == 0 {
				t.Errorf("point %d missing full ledger", i)
			}
			if got, want := albireo.RoleBreakdown(p.Results...), albireo.RoleBreakdown(&direct); !reflect.DeepEqual(got, want) {
				t.Errorf("point %d: per-layer role breakdown %v, concatenated ledger %v", i, got, want)
			}
			a, err := cfg.Build()
			if err != nil {
				t.Fatal(err)
			}
			area, err := a.Area()
			if err != nil {
				t.Fatal(err)
			}
			if p.AreaUM2 != area || p.PeakMACsPerCycle != a.PeakMACsPerCycle() {
				t.Errorf("point %d area/peak mismatch", i)
			}
			i++
		}
	}
}

// TestRunDedupesRepeatedShapes checks the fingerprint cache across points:
// the same workload listed twice must not re-run a single search, and the
// duplicated points must be identical. Within one point, repeated layer
// shapes are deduped before the cache for every base kind, so a raw-arch
// point's cache traffic is one miss per distinct shape and no hits.
func TestRunDedupesRepeatedShapes(t *testing.T) {
	net := tinyNet()
	sp := Spec{
		Base:      Base{Albireo: &AlbireoBase{}},
		Workloads: []Workload{{Inline: net}, {Inline: net}},
		Budget:    80,
	}
	res, err := Run(sp, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("got %d points", len(res.Points))
	}
	if res.CacheMisses != int64(len(net.Layers)) {
		t.Errorf("misses = %d, want %d (one per distinct layer shape)", res.CacheMisses, len(net.Layers))
	}
	if res.CacheHits != int64(len(net.Layers)) {
		t.Errorf("hits = %d, want %d (second workload fully deduped)", res.CacheHits, len(net.Layers))
	}
	a, b := &res.Points[0], &res.Points[1]
	if a.TotalPJ != b.TotalPJ || a.Cycles != b.Cycles || a.Evaluations != b.Evaluations {
		t.Errorf("deduped points differ: %+v vs %+v", a, b)
	}

	raw, err := Run(Spec{
		Base:      Base{Preset: "electrical-baseline"},
		Workloads: []Workload{{Network: "resnet18"}},
		Budget:    40,
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	shapes := map[uint64]bool{}
	for _, l := range workload.ResNet18(1).Layers {
		shapes[l.ShapeFingerprint()] = true
	}
	if raw.CacheHits != 0 || raw.CacheMisses != int64(len(shapes)) {
		t.Errorf("electrical-baseline resnet18: hits/misses = %d/%d, want 0/%d (one search per distinct shape)",
			raw.CacheHits, raw.CacheMisses, len(shapes))
	}
}

// TestRunArchSpecBase sweeps component overrides on a raw-spec base: ADC
// energy scaling must change total energy monotonically and nothing else.
func TestRunArchSpecBase(t *testing.T) {
	sp := Spec{
		Base: templateBase(t),
		Axes: []Axis{
			{Param: "component.ADC.walden_fj_per_step", Values: []any{21.0, 2100.0}},
		},
		Workloads:     []Workload{{Inline: tinyNet()}},
		Budget:        100,
		IncludeLayers: true,
	}
	res, err := Run(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("got %d points", len(res.Points))
	}
	lo, hi := &res.Points[0], &res.Points[1]
	if lo.TotalPJ <= 0 || hi.TotalPJ <= lo.TotalPJ {
		t.Errorf("ADC override did not raise energy: %.4f vs %.4f", lo.TotalPJ, hi.TotalPJ)
	}
	if len(lo.Layers) != 2 {
		t.Errorf("IncludeLayers gave %d layer outcomes", len(lo.Layers))
	}
	if lo.Arch != "mini-photonic" {
		t.Errorf("arch name %q", lo.Arch)
	}
}

func TestRunUnknownComponentOverride(t *testing.T) {
	for param, want := range map[string]string{
		"component.Nope.x":                "no component",
		"component.ADC.walden_fj_per_stp": `components: adc ADC: unknown parameter "walden_fj_per_stp" (adc takes bits, walden_fj_per_step, um2)`,
	} {
		sp := Spec{
			Base:      templateBase(t),
			Axes:      []Axis{{Param: param, Values: []any{1.0}}},
			Workloads: []Workload{{Inline: tinyNet()}},
		}
		if _, err := Run(sp, Options{}); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want %s", param, err, want)
		}
	}
}

// TestRunConcurrencyAndCallbacks drives a wider grid through a small pool
// under the race detector: progress must be monotone, every point must be
// streamed exactly once, and indexes must cover the cross product.
func TestRunConcurrencyAndCallbacks(t *testing.T) {
	sp := Spec{
		Base: Base{Albireo: &AlbireoBase{}},
		Axes: []Axis{
			{Param: "output_lanes", Values: []any{3, 9, 15}},
			{Param: "or_lanes", Values: []any{1, 3}},
		},
		Workloads:  []Workload{{Inline: tinyNet()}},
		Objectives: []string{"energy", "edp"},
		Budget:     60,
	}
	var streamed atomic.Int64
	seen := make(map[int]bool)
	lastDone := 0
	res, err := Run(sp, Options{
		Workers: 4,
		OnPoint: func(p *Point) {
			streamed.Add(1)
			if seen[p.Index] {
				t.Errorf("point %d streamed twice", p.Index)
			}
			seen[p.Index] = true
		},
		Progress: func(done, total int) {
			if total != 12 {
				t.Errorf("total = %d, want 12", total)
			}
			if done != lastDone+1 {
				t.Errorf("progress not monotone: %d after %d", done, lastDone)
			}
			lastDone = done
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if streamed.Load() != 12 || len(res.Points) != 12 {
		t.Fatalf("streamed %d, points %d, want 12", streamed.Load(), len(res.Points))
	}
	for i := range res.Points {
		if res.Points[i].Index != i {
			t.Errorf("point %d has index %d", i, res.Points[i].Index)
		}
		if res.Points[i].Objective != [2]string{"energy", "edp"}[i%2] {
			t.Errorf("point %d objective %s", i, res.Points[i].Objective)
		}
	}
	// Identical layer shapes across all 6 variants' nets differ by arch,
	// so dedupe only collapses the repeated shapes within each
	// (variant, objective): expect exactly one miss per distinct search.
	if res.CacheMisses == 0 || res.CacheHits != 0 {
		t.Errorf("unexpected cache stats: hits %d misses %d", res.CacheHits, res.CacheMisses)
	}
}

// TestRunContextCanceled: a pre-canceled context must stop the run before
// dispatching, mark every undispatched point, and surface the context
// error (how the server sheds abandoned requests).
func TestRunContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sp := Spec{
		Base:      Base{Albireo: &AlbireoBase{}},
		Axes:      []Axis{{Param: "output_lanes", Values: []any{3, 9, 15}}},
		Workloads: []Workload{{Inline: tinyNet()}},
		Budget:    60,
	}
	res, err := Run(sp, Options{Workers: 1, Context: ctx})
	if err == nil || !strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("err = %v, want context canceled", err)
	}
	if res == nil || len(res.Points) != 3 {
		t.Fatalf("expected all points present, got %+v", res)
	}
	canceled := 0
	for i := range res.Points {
		if strings.Contains(res.Points[i].Err, "context canceled") {
			canceled++
			if res.Points[i].Network != "tiny" || res.Points[i].Objective != "energy" {
				t.Errorf("canceled point %d missing identity: %+v", i, res.Points[i])
			}
		}
	}
	if canceled == 0 {
		t.Error("no point carries the cancellation")
	}
}

func TestWriteCSVAndJSON(t *testing.T) {
	sp := Spec{
		Name:      "csv-test",
		Base:      Base{Albireo: &AlbireoBase{}},
		Axes:      []Axis{{Param: "output_lanes", Values: []any{3, 9}}},
		Workloads: []Workload{{Inline: tinyNet()}},
		Budget:    60,
	}
	res, err := Run(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var csvBuf bytes.Buffer
	if err := res.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvBuf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv has %d lines, want header + 2", len(lines))
	}
	if !strings.Contains(lines[0], "output_lanes") || !strings.Contains(lines[0], "pj_per_mac") {
		t.Errorf("csv header missing columns: %s", lines[0])
	}

	var jsonBuf bytes.Buffer
	if err := res.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(jsonBuf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != "csv-test" || len(back.Points) != 2 {
		t.Errorf("json round trip lost data: %+v", back)
	}
	if back.Points[1].PJPerMAC != res.Points[1].PJPerMAC {
		t.Errorf("json round trip changed metrics")
	}
}

// TestSpecJSONRoundTrip parses a sweep spec document the way the CLI and
// server do, and rejects it once it sets the removed warm_start field.
func TestSpecJSONRoundTrip(t *testing.T) {
	doc := `{
		"name": "fig5-style",
		"base": {"albireo": {"scaling": "aggressive"}},
		"axes": [
			{"param": "weight_reuse", "values": [false, true]},
			{"param": "or_lanes", "values": [1, 3, 5]}
		],
		"workloads": [{"network": "resnet18", "batch": 1}],
		"objectives": ["energy"],
		"budget": 400,
		"seed": 1
	}`
	var sp Spec
	dec := json.NewDecoder(strings.NewReader(doc))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		t.Fatal(err)
	}
	variants, err := decodeVariants(sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(variants) != 6 {
		t.Fatalf("got %d variants", len(variants))
	}
	if variants[5].albireo.ORLanes != 5 || !variants[5].albireo.WeightReuse {
		t.Errorf("last variant wrong: %+v", variants[5].albireo)
	}
	warm := strings.Replace(doc, `"seed": 1`, `"seed": 1, "warm_start": true`, 1)
	const want = `sweep: decoding spec: json: unknown field "warm_start"`
	if _, err := DecodeSpec(strings.NewReader(warm)); err == nil || err.Error() != want {
		t.Errorf("warm_start spec: err %v, want %q", err, want)
	}
}
