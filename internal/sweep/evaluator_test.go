package sweep

import (
	"reflect"
	"testing"
)

// TestEvaluatorMatchesRunPoints is the on-demand evaluator's equivalence
// anchor: for every grid point of a spec, Evaluator.Eval with that
// point's axis values must reproduce the corresponding Run point bit for
// bit — same variant construction, same evaluation path.
func TestEvaluatorMatchesRunPoints(t *testing.T) {
	sp := Spec{
		Name: "evaluator-equiv",
		Base: Base{Albireo: &AlbireoBase{}},
		Axes: []Axis{
			{Param: "or_lanes", Values: []any{1, 3}},
			{Param: "weight_reuse", Values: []any{false, true}},
		},
		Workloads:     []Workload{{Network: "alexnet"}},
		Objectives:    []string{"energy", "delay"},
		Budget:        60,
		Seed:          1,
		SearchWorkers: 1,
	}
	res, err := Run(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Points {
		p := &res.Points[i]
		values := []any{p.Params["or_lanes"], p.Params["weight_reuse"]}
		oi := 0
		if p.Objective == "delay" {
			oi = 1
		}
		got, err := ev.Eval(p.Index, values, 0, oi)
		if err != nil {
			t.Fatalf("point %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, p) {
			t.Errorf("point %d differs:\n got %+v\nwant %+v", i, *got, *p)
		}
		// EvalPoint owns Run's index arithmetic: the whole point,
		// ledger included, must match.
		byIndex, err := ev.EvalPoint(i)
		if err != nil {
			t.Fatalf("EvalPoint(%d): %v", i, err)
		}
		if !reflect.DeepEqual(byIndex, p) {
			t.Errorf("EvalPoint(%d) differs from Run point %d:\n got %+v\nwant %+v", i, i, *byIndex, *p)
		}
	}
	if n := ev.NumPoints(); n != len(res.Points) {
		t.Errorf("NumPoints = %d, want %d", n, len(res.Points))
	}
	for _, idx := range []int{-1, len(res.Points)} {
		if _, err := ev.EvalPoint(idx); err == nil {
			t.Errorf("EvalPoint(%d) out of range accepted", idx)
		}
	}
}

// TestEvaluatorValidate checks spec- and value-level failures surface
// without evaluation.
func TestEvaluatorValidate(t *testing.T) {
	sp := Spec{
		Base:      Base{Albireo: &AlbireoBase{}},
		Axes:      []Axis{{Param: "or_lanes"}},
		Workloads: []Workload{{Network: "alexnet"}},
	}
	ev, err := NewEvaluator(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.Validate([]any{3}); err != nil {
		t.Errorf("valid point rejected: %v", err)
	}
	if err := ev.Validate([]any{"three"}); err == nil {
		t.Error("mistyped axis value accepted")
	}
	if err := ev.Validate([]any{1, 2}); err == nil {
		t.Error("wrong arity accepted")
	}
	if _, err := ev.Eval(0, []any{3}, 1, 0); err == nil {
		t.Error("workload index out of range accepted")
	}
	if _, err := ev.Eval(0, []any{3}, 0, 5); err == nil {
		t.Error("objective index out of range accepted")
	}

	bad := sp
	bad.Base = Base{}
	if _, err := NewEvaluator(bad, Options{}); err == nil {
		t.Error("empty base accepted")
	}
	fused := sp
	fused.Base = Base{Preset: "electrical-baseline"}
	fused.Workloads = []Workload{{Network: "alexnet", Fused: true}}
	if _, err := NewEvaluator(fused, Options{}); err == nil {
		t.Error("fused workload on electrical base accepted")
	}
}

// TestEvalPointIndexOrder pins EvalPoint's decoding on a grid with more
// than one workload and objective: every index lands on the variant,
// workload and objective of Run's point at that index.
func TestEvalPointIndexOrder(t *testing.T) {
	other := tinyNet()
	other.Name = "tiny-b"
	sp := Spec{
		Base: Base{Albireo: &AlbireoBase{}},
		Axes: []Axis{
			{Param: "output_lanes", Values: []any{3, 5, 7}},
			{Param: "or_lanes", Values: []any{1, 3}},
		},
		Workloads:     []Workload{{Inline: tinyNet()}, {Inline: other, Batch: 2}},
		Objectives:    []string{"energy", "delay"},
		Budget:        10,
		Seed:          1,
		SearchWorkers: 1,
	}
	res, err := Run(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := ev.NumPoints(); n != 3*2*2*2 || n != len(res.Points) {
		t.Fatalf("NumPoints = %d, Run produced %d, want 24", n, len(res.Points))
	}
	for i := range res.Points {
		got, err := ev.EvalPoint(i)
		if err != nil {
			t.Fatal(err)
		}
		want := &res.Points[i]
		if got.Variant != want.Variant || got.Network != want.Network ||
			got.Batch != want.Batch || got.Objective != want.Objective || got.TotalPJ != want.TotalPJ {
			t.Errorf("index %d: EvalPoint (%s %s/%d %s) != Run (%s %s/%d %s)", i,
				got.Variant, got.Network, got.Batch, got.Objective,
				want.Variant, want.Network, want.Batch, want.Objective)
		}
	}
	empty := sp
	empty.Axes = []Axis{{Param: "or_lanes"}}
	ev, err = NewEvaluator(empty, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := ev.NumPoints(); n != 0 {
		t.Errorf("axis without values: NumPoints = %d, want 0 (Run rejects the grid)", n)
	}
}

// TestEvalPointPastVariantCap: EvalPoint decodes an index against the
// axes' own value counts, so a grid above Run's maxVariants guard still
// evaluates point by point, while an empty axis or an index past the
// last point is rejected.
func TestEvalPointPastVariantCap(t *testing.T) {
	lanes := make([]any, 50)
	for i := range lanes {
		lanes[i] = i + 1
	}
	sp := Spec{
		Base: Base{Albireo: &AlbireoBase{}},
		Axes: []Axis{
			{Param: "output_lanes", Values: lanes},
			{Param: "or_lanes", Values: lanes},
			{Param: "clusters", Values: lanes},
		},
		Workloads:     []Workload{{Inline: tinyNet()}},
		Budget:        10,
		Seed:          1,
		SearchWorkers: 1,
	}
	ev, err := NewEvaluator(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := ev.NumPoints(); n != 0 {
		t.Fatalf("NumPoints = %d, want 0 past the %d-variant cap", n, maxVariants)
	}
	last := 50*50*50 - 1
	got, err := ev.EvalPoint(last)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ev.Eval(last, []any{50, 50, 50}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("EvalPoint(%d) differs from Eval of the last variant:\n got %+v\nwant %+v", last, *got, *want)
	}
	for _, idx := range []int{-1, last + 1} {
		if _, err := ev.EvalPoint(idx); err == nil {
			t.Errorf("EvalPoint(%d) out of range accepted", idx)
		}
	}
	empty := sp
	empty.Axes = []Axis{{Param: "or_lanes"}}
	if ev, err = NewEvaluator(empty, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := ev.EvalPoint(0); err == nil {
		t.Error("EvalPoint on an axis without values accepted")
	}
}
