// fused_pipeline reproduces the paper's Fig. 4 scenario interactively:
// ResNet18 on the aggressively-scaled Albireo, with and without input
// batching and layer fusion. It shows the paper's headline full-system
// result — the aggressively-scaled accelerator is so efficient that DRAM
// dominates, and only DRAM-traffic optimizations realize the scaling's
// benefit.
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"photoloop"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	names := []string{
		"baseline (batch 1, activations via DRAM)",
		"batched (batch 8)",
		"fused (activations stay on chip)",
		"batched + fused",
	}
	// One sweep evaluates all four workloads on the aggressive Albireo.
	res, err := photoloop.Sweep(photoloop.SweepSpec{
		Base: photoloop.SweepBase{Albireo: &photoloop.SweepAlbireoBase{Scaling: "aggressive"}},
		Workloads: []photoloop.SweepWorkload{
			{Network: "resnet18", Batch: 1},
			{Network: "resnet18", Batch: 8},
			{Network: "resnet18", Batch: 1, Fused: true},
			{Network: "resnet18", Batch: 8, Fused: true},
		},
		Budget: 600,
		Seed:   1,
	}, photoloop.SweepOptions{})
	if err != nil {
		return err
	}
	base := res.Points[0].PJPerMAC
	for i, name := range names {
		p := &res.Points[i]
		var dram float64
		for _, r := range p.Results {
			for _, e := range r.Energy {
				if e.Class == "dram" {
					dram += e.TotalPJ
				}
			}
		}
		bars := int(p.PJPerMAC / base * 40)
		fmt.Fprintf(w, "%-45s %.4f pJ/MAC  %s\n", name, p.PJPerMAC, strings.Repeat("#", bars))
		fmt.Fprintf(w, "%-45s DRAM share %.1f%%, throughput %.0f MACs/cycle\n",
			"", 100*dram/p.TotalPJ, float64(p.MACs)/p.Cycles)
	}
	fmt.Fprintln(w, "\nthe paper's finding: batching + fusion recover ~3x on the aggressive system,")
	fmt.Fprintln(w, "because DRAM — not the photonics — dominates once devices are cheap enough.")
	return nil
}
