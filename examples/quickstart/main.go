// Quickstart: build the Albireo photonic accelerator model, map one
// convolution layer onto it, and inspect where the energy goes — including
// the cross-domain conversion costs (DE/AE, AE/AO, AO/AE, AE/DE) that the
// paper shows can dominate photonic systems.
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"sort"

	"photoloop"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// 1. Build the conservatively-scaled Albireo (8 clusters x 32 pixel
	//    lanes x 3 output lanes x 9 wavelength window slots).
	cfg := photoloop.Albireo(photoloop.Conservative)
	a, err := cfg.Build()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "architecture: %s, peak %d MACs/cycle\n", a.Name, a.PeakMACsPerCycle())
	area, err := a.Area()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "area: %.2f mm^2\n", area/1e6)

	// 2. Describe a workload layer: a 3x3 convolution.
	layer := photoloop.NewConv("conv3x3", 1, 96, 64, 32, 32, 3, 3, 1, 1)
	fmt.Fprintf(w, "layer: %s (%d MACs)\n\n", layer.String(), layer.MACs())

	// 3. Let the mapper find an energy-optimal schedule, seeded with the
	//    architect-intended canonical mappings.
	best, err := photoloop.Search(a, &layer, photoloop.SearchOptions{
		Objective: photoloop.MinEnergy,
		Budget:    2000,
		Seed:      1,
		Seeds:     photoloop.SeedList(photoloop.AlbireoCanonicalMappings(a, &layer)),
	})
	if err != nil {
		return err
	}
	res := best.Result
	fmt.Fprintf(w, "best mapping (%d evaluations):\n%s\n", best.Evaluations, best.Mapping.String())
	fmt.Fprintf(w, "energy:     %.3f pJ/MAC\n", res.PJPerMAC())
	fmt.Fprintf(w, "throughput: %.0f MACs/cycle (utilization %.1f%%)\n",
		res.MACsPerCycle, 100*res.Utilization)

	// 4. Where does the energy go? Group the ledger by component.
	byComp := res.EnergyByComponent()
	names := make([]string, 0, len(byComp))
	for n := range byComp {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return byComp[names[i]] > byComp[names[j]] })
	fmt.Fprintln(w, "\nenergy by component:")
	for _, n := range names {
		fmt.Fprintf(w, "  %-14s %6.3f pJ/MAC (%5.1f%%)\n",
			n, byComp[n]/float64(res.MACs), 100*byComp[n]/res.TotalPJ)
	}

	// 5. The same question per domain crossing: how much do conversions
	//    cost versus computation and storage?
	conv := 0.0
	for i := range res.Energy {
		switch res.Energy[i].Class {
		case "dac", "adc", "mzm", "photodiode":
			conv += res.Energy[i].TotalPJ
		case "mrr":
			if res.Energy[i].Action == "program" {
				conv += res.Energy[i].TotalPJ
			}
		}
	}
	fmt.Fprintf(w, "\ncross-domain conversions: %.1f%% of total energy — the paper's central cost\n",
		100*conv/res.TotalPJ)
	return nil
}
