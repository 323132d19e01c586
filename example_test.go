package photoloop_test

import (
	"fmt"
	"log"
	"strings"

	"photoloop"
)

// ExampleAlbireo instantiates the paper's Albireo accelerator at a scaling
// point and reads its mapping-independent properties.
func ExampleAlbireo() {
	cfg := photoloop.Albireo(photoloop.Aggressive)
	a, err := cfg.Build()
	if err != nil {
		log.Fatal(err)
	}
	area, err := a.Area()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("IR=%d OR=%d\n", cfg.IR(), cfg.OR())
	fmt.Printf("peak %d MACs/cycle, %.1f mm^2\n", a.PeakMACsPerCycle(), area/1e6)
	// Output:
	// IR=9 OR=3
	// peak 6912 MACs/cycle, 8.2 mm^2
}

// ExampleEvaluate runs the analytical model for one layer on a fixed
// schedule — no search, fully deterministic.
func ExampleEvaluate() {
	a, err := photoloop.Albireo(photoloop.Conservative).Build()
	if err != nil {
		log.Fatal(err)
	}
	// The paper's best-case layer: fully utilizes the default Albireo.
	layer := photoloop.NewConv("conv3x3", 1, 96, 64, 32, 32, 3, 3, 1, 1)
	// Evaluate the architect-intended canonical schedule.
	m := photoloop.AlbireoCanonicalMappings(a, &layer)[0]
	res, err := photoloop.Evaluate(a, &layer, m, photoloop.EvalOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("utilization %.0f%%\n", 100*res.Utilization)
	fmt.Printf("%.1f pJ/MAC\n", res.PJPerMAC())
	// Output:
	// utilization 100%
	// 4.5 pJ/MAC
}

// ExampleSearch lets the mapper find the best schedule for a layer.
// Results are deterministic for a fixed (Seed, Workers) pair.
func ExampleSearch() {
	a, err := photoloop.Albireo(photoloop.Conservative).Build()
	if err != nil {
		log.Fatal(err)
	}
	layer := photoloop.NewConv("conv3x3", 1, 96, 64, 32, 32, 3, 3, 1, 1)
	best, err := photoloop.Search(a, &layer, photoloop.SearchOptions{
		Budget: 400, Seed: 1, Workers: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("utilization %.0f%%, %.0f MACs/cycle\n",
		100*best.Result.Utilization, best.Result.MACsPerCycle)
	// Output:
	// utilization 100%, 6912 MACs/cycle
}

// ExampleSweep declares a two-variant design-space sweep and evaluates it
// concurrently — the same engine behind `photoloop sweep` and the
// `POST /v1/sweep` endpoint of `photoloop serve`.
func ExampleSweep() {
	spec := photoloop.SweepSpec{
		Base: photoloop.SweepBase{Albireo: &photoloop.SweepAlbireoBase{Scaling: "aggressive"}},
		Axes: []photoloop.SweepAxis{
			{Param: "output_lanes", Values: []any{3, 9}},
		},
		Workloads:     []photoloop.SweepWorkload{{Network: "alexnet", Batch: 1}},
		Objectives:    []string{"energy"},
		Budget:        200,
		Seed:          1,
		SearchWorkers: 2,
	}
	res, err := photoloop.Sweep(spec, photoloop.SweepOptions{})
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range res.Points {
		fmt.Printf("%s: IR=%d, %.1f pJ/MAC\n",
			p.Variant, 3*p.Params["output_lanes"].(int), p.PJPerMAC)
	}
	// Output:
	// output_lanes=3: IR=9, 16.8 pJ/MAC
	// output_lanes=9: IR=27, 16.9 pJ/MAC
}

// ExampleAlbireoConverterPJ attributes a sweep point's energy by role: a
// point's Results hold each layer's best-mapping result, ledger included,
// and the role helpers sum over all of them — here the share of the whole
// network's energy spent in cross-domain converters (the paper's Fig. 5).
func ExampleAlbireoConverterPJ() {
	res, err := photoloop.Sweep(photoloop.SweepSpec{
		Base: photoloop.SweepBase{Albireo: &photoloop.SweepAlbireoBase{Scaling: "aggressive"}},
		Axes: []photoloop.SweepAxis{
			{Param: "weight_reuse", Values: []any{false, true}},
		},
		Workloads:     []photoloop.SweepWorkload{{Network: "alexnet", Batch: 1}},
		Budget:        60,
		Seed:          1,
		SearchWorkers: 1,
	}, photoloop.SweepOptions{})
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range res.Points {
		fmt.Printf("%s: converters %.1f%% of %.2f pJ/MAC\n",
			p.Variant, 100*photoloop.AlbireoConverterPJ(p.Results...)/p.TotalPJ, p.PJPerMAC)
	}
	// Output:
	// weight_reuse=false: converters 7.7% of 17.40 pJ/MAC
	// weight_reuse=true: converters 3.9% of 16.62 pJ/MAC
}

// ExampleParseArchSpec round-trips the built-in template document and
// builds it — the JSON path `photoloop eval -arch` and the HTTP endpoints
// consume.
func ExampleParseArchSpec() {
	as, err := photoloop.ParseArchSpec(strings.NewReader(photoloop.ArchTemplate()))
	if err != nil {
		log.Fatal(err)
	}
	a, err := as.Build()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d levels, peak %d MACs/cycle\n", a.Name, a.NumLevels(), a.PeakMACsPerCycle())
	// Output:
	// mini-photonic: 5 levels, peak 864 MACs/cycle
}

// ExampleStudy compares architecture presets on one workload and prints
// each objective's winner — the engine behind `photoloop study` and
// `POST /v1/study`. Rows arrive ranked per (workload, objective) group,
// bit-identical to evaluating each (preset, workload) pair individually.
func ExampleStudy() {
	res, err := photoloop.Study(photoloop.StudySpec{
		Presets:       []string{"albireo", "electrical-baseline"},
		Workloads:     []string{"alexnet"},
		Objectives:    []string{"energy", "delay"},
		Budget:        60,
		Seed:          1,
		SearchWorkers: 1,
	}, photoloop.SweepOptions{})
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.Rank == 1 {
			fmt.Printf("%s/%s winner: %s\n", row.Network, row.Objective, row.Preset)
		}
	}
	// Output:
	// alexnet/energy winner: electrical-baseline
	// alexnet/delay winner: albireo
}

func ExampleExplore() {
	f, err := photoloop.Explore(photoloop.ExploreSpec{
		Base: photoloop.SweepBase{Preset: "albireo"},
		Axes: []photoloop.ExploreAxis{
			{Param: "or_lanes", Values: []any{1, 3, 5}},
			{Param: "output_lanes", Values: []any{3, 9, 15}},
			{Param: "weight_reuse", Values: []any{false, true}},
		},
		Workload:      photoloop.SweepWorkload{Network: "alexnet"},
		Objectives:    []string{"energy", "area"},
		MapperBudget:  60,
		Seed:          1,
		SearchWorkers: 1,
	}, photoloop.ExploreOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s strategy: %d Pareto-optimal of %d points\n", f.Strategy, len(f.Points), f.Evals)
	best := f.Points[0] // lowest energy on the frontier
	fmt.Printf("lowest-energy design: %s\n", best.Variant)
	// Output:
	// grid strategy: 6 Pareto-optimal of 18 points
	// lowest-energy design: or_lanes=3 output_lanes=15 weight_reuse=true
}
