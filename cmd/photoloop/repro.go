package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"photoloop/internal/albireo"
	"photoloop/internal/exp"
)

// figure is the common surface of the exp figure results.
type figure interface {
	Render(io.Writer) error
	Table() (headers []string, align string, rows [][]string)
}

// cmdRepro regenerates the paper's figures — the Fig. 2 energy validation,
// Fig. 3 throughput comparison, Fig. 4 full-system memory exploration,
// Fig. 5 reuse-scaling exploration and the modeling ablations — printing
// the textual equivalent of each, then scores the paper's headline claims
// against the tolerance bands in internal/albireo. Any failed claim makes
// the command fail.
func cmdRepro(args []string) error {
	return repro(args, os.Stdout, albireo.Claims())
}

// repro runs cmdRepro against the given claim bands, writing to w.
func repro(args []string, w io.Writer, claims albireo.PaperClaims) error {
	fs := flag.NewFlagSet("repro", flag.ExitOnError)
	fig := fs.String("fig", "all", "which figure to regenerate: all, 2, 3, 4, 5, ablation, or claims")
	budget := fs.Int("budget", 800, "mapper evaluation budget per layer")
	seed := fs.Int64("seed", 1, "mapper random seed")
	csvDir := fs.String("csv", "", "also write each figure's table as CSV into this directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch *fig {
	case "all", "2", "3", "4", "5", "ablation", "claims":
	default:
		return fmt.Errorf("repro: unknown -fig %q (want all, 2, 3, 4, 5, ablation or claims)", *fig)
	}
	cfg := exp.Config{Budget: *budget, Seed: *seed}

	figs := []struct {
		fig, name string // the -fig value and the output name
		run       func() (figure, error)
	}{
		{"2", "fig2", func() (figure, error) { return exp.Fig2(cfg) }},
		{"3", "fig3", func() (figure, error) { return exp.Fig3(cfg) }},
		{"4", "fig4", func() (figure, error) { return exp.Fig4(cfg) }},
		{"5", "fig5", func() (figure, error) { return exp.Fig5(cfg) }},
		{"ablation", "ablation", func() (figure, error) { return exp.Ablations(cfg) }},
	}
	done := map[string]figure{} // rendered results, reused by the claims check
	for _, f := range figs {
		if *fig != "all" && *fig != f.fig {
			continue
		}
		name := f.name
		t0 := time.Now()
		r, err := f.run()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		done[name] = r
		if err := r.Render(w); err != nil {
			return fmt.Errorf("%s: render: %w", name, err)
		}
		fmt.Fprintf(w, "[%s regenerated in %v]\n\n", name, time.Since(t0).Round(time.Millisecond))
		if *csvDir != "" {
			if err := writeFigureCSV(filepath.Join(*csvDir, name+".csv"), r); err != nil {
				return fmt.Errorf("%s: csv: %w", name, err)
			}
		}
	}
	if *fig == "all" || *fig == "claims" {
		return checkClaims(w, cfg, claims, done)
	}
	return nil
}

func writeFigureCSV(path string, r figure) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	headers, _, rows := r.Table()
	if err := exp.WriteCSV(f, headers, rows); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// checkClaims scores the paper's quantitative claims against the tolerance
// bands, one PASS/FAIL line per claim, running only the figures done does
// not already hold. It returns an error naming every failed claim.
func checkClaims(w io.Writer, cfg exp.Config, claims albireo.PaperClaims, done map[string]figure) error {
	fmt.Fprintln(w, "Paper claims check")
	fmt.Fprintln(w, "------------------")
	var failed []string
	check := func(ok bool, claim, format string, args ...any) {
		verdict := "PASS"
		if !ok {
			verdict = "FAIL"
			failed = append(failed, claim)
		}
		fmt.Fprintf(w, "%s  %s "+format+"\n", append([]any{verdict, claim}, args...)...)
	}

	f2, err := figureFor(done, "fig2", exp.Fig2, cfg)
	if err != nil {
		return err
	}
	check(f2.AvgAbsErrPct <= 100*claims.Fig2MaxAvgError, "Fig2 avg energy error",
		"%.2f%% (paper 0.4%%, band <= %.0f%%)", f2.AvgAbsErrPct, 100*claims.Fig2MaxAvgError)

	f3, err := figureFor(done, "fig3", exp.Fig3, cfg)
	if err != nil {
		return err
	}
	for _, row := range f3.Rows {
		frac := row.Modeled / row.Ideal
		switch row.Network {
		case "vgg16":
			check(frac >= claims.Fig3VGGMinUtil, "Fig3 VGG16 modeled/ideal",
				"%.2f (band >= %.2f: near ideal)", frac, claims.Fig3VGGMinUtil)
		case "alexnet":
			check(frac <= claims.Fig3AlexMaxUtil, "Fig3 AlexNet modeled/ideal",
				"%.2f (band <= %.2f: significantly degraded)", frac, claims.Fig3AlexMaxUtil)
		}
	}

	f4, err := figureFor(done, "fig4", exp.Fig4, cfg)
	if err != nil {
		return err
	}
	check(f4.AggressiveBaselineDRAMShare >= claims.Fig4AggressiveDRAMShareLo &&
		f4.AggressiveBaselineDRAMShare <= claims.Fig4AggressiveDRAMShareHi,
		"Fig4 aggressive DRAM share", "%.2f (paper 0.75, band %.2f..%.2f)",
		f4.AggressiveBaselineDRAMShare, claims.Fig4AggressiveDRAMShareLo, claims.Fig4AggressiveDRAMShareHi)
	check(f4.ConservativeBaselineDRAMShare <= claims.Fig4ConservativeDRAMShareHi,
		"Fig4 conservative DRAM share", "%.2f (paper: small, band <= %.2f)",
		f4.ConservativeBaselineDRAMShare, claims.Fig4ConservativeDRAMShareHi)
	check(f4.AggressiveCombinedReduction >= claims.Fig4CombinedReductionLo,
		"Fig4 batching+fusion reduction", "%.2f (paper 0.67, band >= %.2f)",
		f4.AggressiveCombinedReduction, claims.Fig4CombinedReductionLo)

	f5, err := figureFor(done, "fig5", exp.Fig5, cfg)
	if err != nil {
		return err
	}
	check(f5.BestConverterReduction >= claims.Fig5ConverterReductionLo,
		"Fig5 converter reduction", "%.2f (paper 0.42, band >= %.2f)",
		f5.BestConverterReduction, claims.Fig5ConverterReductionLo)
	check(f5.BestAcceleratorReduction >= claims.Fig5AcceleratorReductionLo,
		"Fig5 accelerator reduction", "%.2f (paper 0.31, band >= %.2f)",
		f5.BestAcceleratorReduction, claims.Fig5AcceleratorReductionLo)

	if len(failed) > 0 {
		return fmt.Errorf("repro: %d paper claim(s) failed: %s", len(failed), strings.Join(failed, "; "))
	}
	return nil
}

// figureFor returns the named figure from done, running it at cfg if it is
// not there.
func figureFor[T figure](done map[string]figure, name string, run func(exp.Config) (T, error), cfg exp.Config) (T, error) {
	if r, ok := done[name].(T); ok {
		return r, nil
	}
	return run(cfg)
}
