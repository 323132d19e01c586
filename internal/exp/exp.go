// Package exp contains one harness per figure of the paper's evaluation
// section. Each harness returns structured rows (for tests and benchmarks)
// and renders the textual equivalent of the figure (for the CLI and
// EXPERIMENTS.md).
package exp

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"

	"photoloop/internal/albireo"
	"photoloop/internal/workload"
)

// Config tunes the experiment harnesses. The zero value gets defaults
// suitable for full-fidelity runs; tests dial Budget down.
type Config struct {
	// Budget is the mapper evaluation budget per layer (default 800).
	Budget int
	// Seed fixes the mapper's randomness (default 1).
	Seed int64
	// Workers caps mapper parallelism (default: automatic).
	Workers int
}

func (c Config) withDefaults() Config {
	if c.Budget <= 0 {
		c.Budget = 800
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// BestCaseLayer returns the canonical best-case convolution used for the
// Fig. 2 energy validation: an unstrided 3x3 layer that fully utilizes the
// default Albireo (K=96=3x32 output lanes x temporal, C=64=8 clusters x 8,
// 32x32 output pixels = one full pixel-vector pass per row) and whose
// working set fits the global buffer, so the canonical mapping exercises
// maximum reuse in every domain.
func BestCaseLayer() workload.Layer {
	return workload.NewConv("bestcase", 1, 96, 64, 32, 32, 3, 3, 1, 1)
}

// scalings evaluated by Fig. 2.
func fig2Scalings() []albireo.Scaling { return albireo.AllScalings() }

// fig4Scalings evaluated by Fig. 4.
func fig4Scalings() []albireo.Scaling {
	return []albireo.Scaling{albireo.Conservative, albireo.Aggressive}
}

// WriteCSV writes a figure's table (the headers and rows its Table method
// returns) as RFC 4180 CSV, quoting cells that hold commas or quotes.
func WriteCSV(w io.Writer, headers []string, rows [][]string) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(headers); err != nil {
		return err
	}
	return cw.WriteAll(rows)
}

// bar renders a horizontal bar of the value scaled to maxWidth characters
// at full scale; any positive value gets at least one mark.
func bar(value, fullScale float64, maxWidth int) string {
	if fullScale <= 0 || value <= 0 || maxWidth <= 0 {
		return ""
	}
	n := int(value / fullScale * float64(maxWidth))
	if n > maxWidth {
		n = maxWidth
	}
	if n < 1 {
		n = 1
	}
	return strings.Repeat("#", n)
}

// pct formats a ratio as a percentage.
func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }
