package main

import (
	"encoding/json"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed interval at a layer boundary. Spans of one operation
// or request share a Trace ID; Parent links a span to the span that
// caused it (0 for a root, or when the caller cannot know it, as for a
// search running inside a server handler).
type Span struct {
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent,omitempty"`
	Trace  uint64        `json:"trace"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	// Attrs carries the layer's own numbers for the interval (search
	// evaluations, response bytes, ...).
	Attrs map[string]float64 `json:"attrs,omitempty"`
}

// Dur is the span's length.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Recorder keeps spans in memory until the run ends. A nil *Recorder is
// tracing off: Start returns a zero span and End drops it, so untraced
// runs pay no clock reads at layer boundaries.
type Recorder struct {
	epoch time.Time
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []Span
}

// NewRecorder returns an empty recorder whose span times count from now.
func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// NewID returns a fresh span or trace identifier (never 0).
func (r *Recorder) NewID() uint64 {
	if r == nil {
		return 0
	}
	return r.ids.Add(1)
}

// Start opens a span.
func (r *Recorder) Start(name string, trace, parent uint64) Span {
	if r == nil {
		return Span{}
	}
	return Span{ID: r.NewID(), Parent: parent, Trace: trace, Name: name, Start: time.Since(r.epoch)}
}

// Now is the time since the recorder's epoch (0 when tracing is off).
func (r *Recorder) Now() time.Duration {
	if r == nil {
		return 0
	}
	return time.Since(r.epoch)
}

// End closes a span and keeps it.
func (r *Recorder) End(s Span) {
	if r == nil {
		return
	}
	s.End = r.Now()
	r.Keep(s)
}

// Keep stores an already closed span.
func (r *Recorder) Keep(s Span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// Spans returns a copy of every closed span, in completion order.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// Named returns the closed spans with the given name.
func (r *Recorder) Named(name string) []Span {
	var out []Span
	for _, s := range r.Spans() {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// WriteJSON writes every span as one JSON document per line.
func (r *Recorder) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range r.Spans() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// SelfTime is a span's duration minus the part of its interval that its
// children cover. Children may overlap one another (two point workers
// searching at once) and may stick out of the parent; only the union of
// their intervals clipped to the parent is subtracted, so the result is
// never negative and never double-counts concurrent children.
func SelfTime(parent Span, children []Span) time.Duration {
	return parent.Dur() - covered(parent.Start, parent.End, children)
}

// covered is the length of the union of the spans' intervals clipped to
// [lo, hi).
func covered(lo, hi time.Duration, spans []Span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var curA, curB time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// Quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (NaN for an empty slice). xs is not modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// Median is Quantile(xs, 0.5).
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// durationsMS converts span lengths to milliseconds.
func durationsMS(spans []Span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = ms(s.Dur())
	}
	return out
}
