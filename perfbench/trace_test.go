package main

import (
	"math"
	"testing"
	"time"
)

func span(start, end int) Span {
	return Span{Start: time.Duration(start), End: time.Duration(end)}
}

// TestSelfTimeOverlappingChildren is the self-time rule on children from
// two concurrent workers: overlapping children count once, parts outside
// the parent not at all.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := span(0, 100)
	workerA := []Span{span(10, 30), span(40, 60)}
	workerB := []Span{span(20, 50), span(90, 120), span(200, 210)}
	children := append(append([]Span(nil), workerA...), workerB...)
	// Union inside the parent: [10,60) and [90,100) = 60.
	if got := SelfTime(parent, children); got != 40 {
		t.Errorf("SelfTime = %d, want 40", got)
	}
	// Order of children must not matter.
	reversed := []Span{children[4], children[3], children[2], children[1], children[0]}
	if got := SelfTime(parent, reversed); got != 40 {
		t.Errorf("SelfTime (reversed) = %d, want 40", got)
	}
	// Identical children from both workers count once.
	if got := SelfTime(parent, []Span{span(10, 20), span(10, 20)}); got != 90 {
		t.Errorf("SelfTime (duplicate children) = %d, want 90", got)
	}
	// A child covering the whole parent leaves no self time.
	if got := SelfTime(parent, []Span{span(-5, 105)}); got != 0 {
		t.Errorf("SelfTime (covered) = %d, want 0", got)
	}
	if got := SelfTime(parent, nil); got != 100 {
		t.Errorf("SelfTime (no children) = %d, want 100", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := Quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("Quantile reordered its input")
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile of nothing should be NaN")
	}
}

// TestNilRecorderIsOff pins that tracing off records nothing.
func TestNilRecorderIsOff(t *testing.T) {
	var r *Recorder
	s := r.Start("x", r.NewID(), 0)
	r.End(s)
	if s.ID != 0 || len(r.Spans()) != 0 || r.Now() != 0 {
		t.Error("a nil recorder must not record")
	}
}
