package exp

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// figure is the common surface of the figure results.
type figure interface {
	Render(io.Writer) error
	Table() (headers []string, align string, rows [][]string)
}

type figureRunner struct {
	name string
	run  func() (figure, error)
}

// figureRunners lists every figure harness at cfg, in repro's order.
func figureRunners(cfg Config) []figureRunner {
	return []figureRunner{
		{"fig2", func() (figure, error) { return Fig2(cfg) }},
		{"fig3", func() (figure, error) { return Fig3(cfg) }},
		{"fig4", func() (figure, error) { return Fig4(cfg) }},
		{"fig5", func() (figure, error) { return Fig5(cfg) }},
		{"ablation", func() (figure, error) { return Ablations(cfg) }},
	}
}

// TestFiguresGolden renders every figure at a pinned budget, seed and
// search-worker count and compares the text against testdata: the figures'
// numbers must not move when the code behind them is restructured. The
// golden is never regenerated; a change that moves a figure on purpose
// (a model fix, a new candidate stream) says so where it lands.
func TestFiguresGolden(t *testing.T) {
	var got bytes.Buffer
	for _, f := range figureRunners(Config{Budget: 300, Seed: 1, Workers: 2}) {
		r, err := f.run()
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		if err := r.Render(&got); err != nil {
			t.Fatalf("%s: render: %v", f.name, err)
		}
		fmt.Fprintln(&got)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "figures_golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("figures drifted from testdata/figures_golden.txt at line %d:\n got: %s\nwant: %s", i+1, g, w)
		}
	}
}

// TestFigureCSVParses writes every figure's table as CSV and reads it back:
// each record must carry as many fields as the header. Role-bin headers such
// as "Weight DE/AE, AE/AO" hold commas, so unquoted output would split them.
func TestFigureCSVParses(t *testing.T) {
	for _, f := range figureRunners(testCfg) {
		name := f.name
		r, err := f.run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		headers, _, rows := r.Table()
		var buf bytes.Buffer
		if err := WriteCSV(&buf, headers, rows); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cr := csv.NewReader(&buf)
		cr.FieldsPerRecord = -1
		records, err := cr.ReadAll()
		if err != nil {
			t.Fatalf("%s: csv does not parse: %v", name, err)
		}
		if len(records) != len(rows)+1 {
			t.Fatalf("%s: %d records, want header + %d rows", name, len(records), len(rows))
		}
		for i, rec := range records {
			if len(rec) != len(headers) {
				t.Errorf("%s: record %d has %d fields, header has %d", name, i, len(rec), len(headers))
			}
		}
		for i, h := range headers {
			if records[0][i] != h {
				t.Errorf("%s: header %d reads back as %q, want %q", name, i, records[0][i], h)
			}
		}
	}
}

func TestBar(t *testing.T) {
	if got := bar(5, 10, 10); got != "#####" {
		t.Errorf("bar(5,10,10) = %q", got)
	}
	if got := bar(100, 10, 10); len(got) != 10 {
		t.Errorf("bar should clamp: %q", got)
	}
	if got := bar(0.001, 10, 10); got != "#" {
		t.Errorf("tiny positive values render one mark: %q", got)
	}
	if got := bar(0, 10, 10); got != "" {
		t.Errorf("zero renders empty: %q", got)
	}
	if got := bar(5, 0, 10); got != "" {
		t.Errorf("zero scale renders empty: %q", got)
	}
}

func TestPct(t *testing.T) {
	if got := pct(0.756); got != "75.6%" {
		t.Errorf("pct = %q", got)
	}
}
