package exp

import (
	"bytes"
	"encoding/csv"
	"testing"
)

// TestFigureCSVParses writes every figure's table as CSV and reads it back:
// each record must carry as many fields as the header. Role-bin headers such
// as "Weight DE/AE, AE/AO" hold commas, so unquoted output would split them.
func TestFigureCSVParses(t *testing.T) {
	type tabler interface {
		Table() ([]string, string, [][]string)
	}
	figs := map[string]func() (tabler, error){
		"fig2":     func() (tabler, error) { return Fig2(testCfg) },
		"fig3":     func() (tabler, error) { return Fig3(testCfg) },
		"fig4":     func() (tabler, error) { return Fig4(testCfg) },
		"fig5":     func() (tabler, error) { return Fig5(testCfg) },
		"ablation": func() (tabler, error) { return Ablations(testCfg) },
	}
	for name, run := range figs {
		r, err := run()
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
