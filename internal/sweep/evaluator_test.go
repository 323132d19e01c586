package sweep

import (
	"reflect"
	"strings"
	"testing"
)

// evalPoint evaluates grid point idx alone: a one-index EvalPoints.
func evalPoint(ev *Evaluator, idx int64) (*Point, error) {
	points, err := ev.EvalPoints([]int64{idx}, Options{})
	if err != nil {
		return nil, err
	}
	return &points[0], nil
}

// TestEvaluatorMatchesRunPoints is the on-demand evaluator's equivalence
// anchor: every grid point of a spec, evaluated alone through a
// one-index EvalPoints, must reproduce the corresponding Run point bit
// for bit — same index arithmetic, same variant construction, same
// evaluation path, ledger included.
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
		got, err := evalPoint(ev, int64(i))
		if err != nil {
			t.Fatalf("point %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, &res.Points[i]) {
			t.Errorf("point %d alone differs from Run point %d:\n got %+v\nwant %+v", i, i, *got, res.Points[i])
		}
	}
	for _, idx := range []int64{-1, int64(len(res.Points))} {
		if _, err := evalPoint(ev, idx); err == nil {
			t.Errorf("point %d out of range accepted", idx)
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

// TestEvalPointIndexOrder pins EvalPoints' decoding on a grid with more
// than one workload and objective: every index, evaluated alone, lands on
// the variant, workload and objective of Run's point at that index.
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
	if n := len(res.Points); n != 3*2*2*2 {
		t.Fatalf("Run produced %d points, want 24", n)
	}
	for i := range res.Points {
		got, err := evalPoint(ev, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		want := &res.Points[i]
		if got.Variant != want.Variant || got.Network != want.Network ||
			got.Batch != want.Batch || got.Objective != want.Objective || got.TotalPJ != want.TotalPJ {
			t.Errorf("index %d: alone (%s %s/%d %s) != Run (%s %s/%d %s)", i,
				got.Variant, got.Network, got.Batch, got.Objective,
				want.Variant, want.Network, want.Batch, want.Objective)
		}
	}
	empty := sp
	empty.Axes = []Axis{{Param: "or_lanes"}}
	if _, err := Run(empty, Options{}); err == nil {
		t.Error("Run accepted an axis without values")
	}
}

// TestEvalPointPastVariantCap: EvalPoints decodes an index against the
// axes' own value counts, so a grid above Run's maxVariants guard still
// evaluates point by point — its last point is the one-variant sweep of
// the last values — while an empty axis or an index past the last point
// is rejected.
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
	if _, err := Run(sp, Options{}); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("Run err = %v, want the %d-variant cap", err, maxVariants)
	}
	ev, err := NewEvaluator(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	last := int64(50*50*50 - 1)
	got, err := evalPoint(ev, last)
	if err != nil {
		t.Fatal(err)
	}
	one := sp
	one.Axes = []Axis{
		{Param: "output_lanes", Values: []any{50}},
		{Param: "or_lanes", Values: []any{50}},
		{Param: "clusters", Values: []any{50}},
	}
	res, err := Run(one, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := res.Points[0]
	want.Index = int(last)
	if !reflect.DeepEqual(*got, want) {
		t.Errorf("point %d differs from the one-variant sweep of its values:\n got %+v\nwant %+v", last, *got, want)
	}
	for _, idx := range []int64{-1, last + 1} {
		if _, err := evalPoint(ev, idx); err == nil {
			t.Errorf("point %d out of range accepted", idx)
		}
	}
	empty := sp
	empty.Axes = []Axis{{Param: "or_lanes"}}
	if ev, err = NewEvaluator(empty, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := evalPoint(ev, 0); err == nil {
		t.Error("a point of an axis without values accepted")
	}
}
