// albireo_vgg16 runs VGG16 layer by layer on the Albireo model and prints
// per-layer energy and throughput — the workload-level view behind the
// paper's Fig. 3: unstrided 3x3 convolutions fill the photonic array,
// while odd shapes (the 14x14 tail, the huge FC layers) underutilize it or
// run into the DRAM bandwidth wall.
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"photoloop"
)

func main() {
	a, err := photoloop.Albireo(photoloop.Conservative).Build()
	if err != nil {
		log.Fatal(err)
	}
	net := photoloop.VGG16(1)

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "layer\tMACs\tpJ/MAC\tMACs/cycle\tutil\tbottleneck")
	var macs int64
	var pj, cycles float64
	for i := range net.Layers {
		l := &net.Layers[i]
		best, err := photoloop.Search(a, l, photoloop.SearchOptions{
			Objective: photoloop.MinEnergy,
			Budget:    800,
			Seed:      1,
			Seeds:     photoloop.SeedList(photoloop.AlbireoCanonicalMappings(a, l)),
		})
		if err != nil {
			log.Fatalf("%s: %v", l.Name, err)
		}
		r := best.Result
		bn := r.BottleneckLevel
		if bn == "" {
			bn = "compute"
		}
		fmt.Fprintf(w, "%s\t%d\t%.3f\t%.0f\t%.1f%%\t%s\n",
			l.Name, r.MACs, r.PJPerMAC(), r.MACsPerCycle, 100*r.Utilization, bn)
		macs += r.MACs
		pj += r.TotalPJ
		cycles += r.Cycles
	}
	w.Flush()
	fmt.Printf("\nnetwork total: %.3f pJ/MAC, %.0f MACs/cycle end to end, %.3f ms/inference at 5 GHz\n",
		pj/float64(macs), float64(macs)/cycles, cycles/5e9*1e3)
}
