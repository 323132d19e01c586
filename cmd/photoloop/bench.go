package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"
	"text/tabwriter"
	"time"

	"photoloop"
)

// BenchDoc is the JSON document `photoloop bench` emits: the repo's
// performance trajectory artifact (BENCH_PR3.json and successors). With
// -compare, the prior document's measurements are embedded as the baseline
// and per-benchmark speedups are computed.
type BenchDoc struct {
	Schema    string `json:"schema"`
	Label     string `json:"label,omitempty"`
	Generated string `json:"generated_at,omitempty"`
	GoVersion string `json:"go_version"`
	GOARCH    string `json:"goarch"`
	// Benchmarks maps benchmark name to its measurement.
	Benchmarks map[string]BenchMeasurement `json:"benchmarks"`
	// Search reports the mapper's candidate-stream statistics on a
	// representative seeded search (Albireo aggressive, ResNet18-style
	// layer, canonical seeds, budget 500).
	Search *BenchSearchStats `json:"search,omitempty"`
	// Baseline holds the compared prior document's measurements.
	Baseline *BenchDoc `json:"baseline,omitempty"`
	// Speedup maps benchmark name to baseline ns/op divided by this
	// document's ns/op.
	Speedup map[string]float64 `json:"speedup,omitempty"`
}

// BenchMeasurement is one benchmark result.
type BenchMeasurement struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	N           int     `json:"n"`
}

// BenchSearchStats summarizes one search's candidate dispatch.
type BenchSearchStats struct {
	Budget         int     `json:"budget"`
	Evaluations    int     `json:"evaluations"`
	Pruned         int     `json:"pruned"`
	DeltaEvals     int     `json:"delta_evals"`
	FullEvals      int     `json:"full_evals"`
	Duplicates     int     `json:"duplicates"`
	Invalid        int     `json:"invalid"`
	PrunedFraction float64 `json:"pruned_fraction"`
}

func cmdBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit the bench JSON document instead of a table")
	outPath := fs.String("out", "", "write the document to this file (implies -json)")
	label := fs.String("label", "", "label recorded in the document")
	comparePath := fs.String("compare", "", "prior bench JSON to embed as baseline and compute speedups against")
	maxRegress := fs.Float64("max-regress", -1, "with -compare: exit non-zero if any benchmark runs more than this percentage slower than the baseline (e.g. 50 tolerates up to 1.5x the baseline ns/op); negative disables the gate")
	only := fs.String("only", "", "run only this benchmark (Evaluate, EvaluateFullLedger, LowerBound, MapperSearch, Fig4, Fig5)")
	reps := fs.Int("reps", 1, "run each benchmark this many times and record the fastest — min-of-N rejects scheduler noise on shared machines")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *maxRegress >= 0 && *comparePath == "" {
		return fmt.Errorf("bench: -max-regress requires -compare")
	}

	doc := &BenchDoc{
		Schema:     "photoloop-bench/1",
		Label:      *label,
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		Benchmarks: map[string]BenchMeasurement{},
	}

	benches, err := benchSuite()
	if err != nil {
		return err
	}
	if *only != "" {
		known := false
		for _, b := range benches {
			known = known || b.name == *only
		}
		if !known {
			names := make([]string, 0, len(benches))
			for _, b := range benches {
				names = append(names, b.name)
			}
			return fmt.Errorf("bench: unknown benchmark %q (want one of %v)", *only, names)
		}
	}
	for _, b := range benches {
		if *only != "" && b.name != *only {
			continue
		}
		fmt.Fprintf(os.Stderr, "bench: %s...\n", b.name)
		var best BenchMeasurement
		for rep := 0; rep < *reps || rep == 0; rep++ {
			r := testing.Benchmark(b.fn)
			m := BenchMeasurement{
				NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
				AllocsPerOp: r.AllocsPerOp(),
				BytesPerOp:  r.AllocedBytesPerOp(),
				N:           r.N,
			}
			if rep == 0 || m.NsPerOp < best.NsPerOp {
				best = m
			}
		}
		doc.Benchmarks[b.name] = best
	}
	if *only == "" {
		st, err := benchSearchStats()
		if err != nil {
			return err
		}
		doc.Search = st
	}

	if *comparePath != "" {
		f, err := os.Open(*comparePath)
		if err != nil {
			return err
		}
		base := &BenchDoc{}
		err = json.NewDecoder(f).Decode(base)
		f.Close()
		if err != nil {
			return fmt.Errorf("bench: parsing %s: %w", *comparePath, err)
		}
		base.Baseline, base.Speedup = nil, nil // one level of history
		doc.Baseline = base
		doc.Speedup = map[string]float64{}
		for name, m := range doc.Benchmarks {
			if bm, ok := base.Benchmarks[name]; ok && m.NsPerOp > 0 {
				doc.Speedup[name] = bm.NsPerOp / m.NsPerOp
			}
		}
	}

	out := io.Writer(os.Stdout)
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
		*asJSON = true
	}
	if *asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			return err
		}
	} else if err := renderBench(out, doc); err != nil {
		return err
	}
	// The regression gate runs after the document is written, so CI keeps
	// the artifact even when the gate trips.
	return checkRegressions(doc, *maxRegress)
}

// checkRegressions applies the -max-regress gate: any benchmark whose
// ns/op exceeds its baseline's by more than maxRegress percent fails the
// run. Benchmarks absent from the baseline pass (nothing to compare).
func checkRegressions(doc *BenchDoc, maxRegress float64) error {
	if maxRegress < 0 || doc.Baseline == nil {
		return nil
	}
	var failed []string
	for _, name := range benchOrder {
		s, ok := doc.Speedup[name]
		if !ok || s <= 0 {
			continue
		}
		if slowdown := (1/s - 1) * 100; slowdown > maxRegress {
			failed = append(failed, fmt.Sprintf("%s %.0f%% slower (%.0f → %.0f ns/op)",
				name, slowdown, doc.Baseline.Benchmarks[name].NsPerOp, doc.Benchmarks[name].NsPerOp))
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("bench: regression beyond %.0f%%: %s", maxRegress, strings.Join(failed, "; "))
	}
	return nil
}

type namedBench struct {
	name string
	fn   func(b *testing.B)
}

// benchSuite mirrors the repo's go-test microbenchmarks (bench_test.go) so
// `photoloop bench` numbers are directly comparable with `go test -bench`.
func benchSuite() ([]namedBench, error) {
	a, err := photoloop.Albireo(photoloop.Aggressive).Build()
	if err != nil {
		return nil, err
	}
	layer := photoloop.NewConv("l", 1, 128, 128, 28, 28, 3, 3, 1, 1)
	seeds := photoloop.AlbireoCanonicalMappings(a, &layer)
	if len(seeds) == 0 {
		return nil, fmt.Errorf("bench: no canonical mapping")
	}
	m := seeds[0]
	c, err := photoloop.Compile(a, &layer)
	if err != nil {
		return nil, err
	}
	benchCfg := photoloop.ExperimentConfig{Budget: 200, Seed: 1}
	evalBench := func(opts photoloop.EvalOptions) func(b *testing.B) {
		return func(b *testing.B) {
			scratch := c.Engine().NewScratch()
			res := &photoloop.Result{}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.EvaluateInto(scratch, m, res, opts); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	return []namedBench{
		{"Evaluate", evalBench(photoloop.EvalOptions{SkipValidate: true})},
		{"EvaluateFullLedger", evalBench(photoloop.EvalOptions{SkipValidate: true, FullLedger: true})},
		{"LowerBound", func(b *testing.B) {
			scratch := c.Engine().NewScratch()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if bd := c.LowerBound(scratch, m, photoloop.EvalOptions{}); bd.EnergyPJ <= 0 {
					b.Fatal("degenerate bound")
				}
			}
		}},
		{"MapperSearch", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := photoloop.Search(a, &layer, photoloop.SearchOptions{Budget: 500, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"Fig4", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := photoloop.Fig4(benchCfg); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"Fig5", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := photoloop.Fig5(benchCfg); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}, nil
}

// benchSearchStats runs one representative seeded search (canonical
// schedules as seeds, the configuration every figure harness uses) and
// reports the mapper's candidate-stream statistics.
func benchSearchStats() (*BenchSearchStats, error) {
	a, err := photoloop.Albireo(photoloop.Aggressive).Build()
	if err != nil {
		return nil, err
	}
	layer := photoloop.NewConv("l", 1, 128, 128, 28, 28, 3, 3, 1, 1)
	best, err := photoloop.Search(a, &layer, photoloop.SearchOptions{
		Budget: 500, Seed: 1,
		Seeds: photoloop.AlbireoCanonicalMappings(a, &layer),
	})
	if err != nil {
		return nil, err
	}
	st := best.Stats
	return &BenchSearchStats{
		Budget:         500,
		Evaluations:    best.Evaluations,
		Pruned:         st.Pruned,
		DeltaEvals:     st.DeltaEvals,
		FullEvals:      st.FullEvals,
		Duplicates:     st.Duplicates,
		Invalid:        st.Invalid,
		PrunedFraction: st.PrunedFraction(),
	}, nil
}

// benchOrder is the suite's canonical display and gating order.
var benchOrder = []string{"Evaluate", "EvaluateFullLedger", "LowerBound", "MapperSearch", "Fig4", "Fig5"}

func renderBench(out io.Writer, doc *BenchDoc) error {
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "benchmark\tns/op\tallocs/op\tB/op\tspeedup")
	for _, name := range benchOrder {
		m, ok := doc.Benchmarks[name]
		if !ok {
			continue
		}
		sp := ""
		if s, ok := doc.Speedup[name]; ok {
			sp = fmt.Sprintf("%.2fx", s)
		}
		fmt.Fprintf(w, "%s\t%.0f\t%d\t%d\t%s\n", name, m.NsPerOp, m.AllocsPerOp, m.BytesPerOp, sp)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if doc.Search != nil {
		s := doc.Search
		fmt.Fprintf(out, "seeded search (budget %d): %d evals — %d pruned (%.0f%%), %d delta, %d full, %d dup, %d invalid\n",
			s.Budget, s.Evaluations, s.Pruned, 100*s.PrunedFraction, s.DeltaEvals, s.FullEvals, s.Duplicates, s.Invalid)
	}
	return nil
}
