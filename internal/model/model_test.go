package model

import (
	"math"
	"testing"

	"photoloop/internal/arch"
	"photoloop/internal/components"
	"photoloop/internal/mapping"
	"photoloop/internal/workload"
)

func freeLib(t *testing.T) *components.Library {
	t.Helper()
	lib := components.NewLibrary()
	mk := func(class, name string, p components.Params) {
		c, err := components.Build(class, name, p)
		if err != nil {
			t.Fatal(err)
		}
		lib.MustAdd(c)
	}
	mk("dram", "DRAM", components.Params{"pj_per_bit": 1})
	mk("sram", "Buf", components.Params{"capacity_bits": 1 << 24, "access_bits": 8})
	mk("regfile", "Reg", components.Params{"access_bits": 8})
	mk("dac", "DAC", components.Params{"bits": 8, "pj_per_bit": 0.05})
	mk("adc", "ADC", components.Params{"bits": 8, "walden_fj_per_step": 50})
	mk("mrr", "MRR", components.Params{"program_pj": 2})
	mk("mzm", "MZM", components.Params{"modulate_pj": 1})
	mk("photodiode", "PD", components.Params{"detect_pj": 0.5})
	mk("laser", "Laser", components.Params{"per_mac_pj": 0.25})
	return lib
}

// twoLevel: DRAM -> Reg, everything kept everywhere, no fanout.
func twoLevel(t *testing.T) *arch.Arch {
	t.Helper()
	a := &arch.Arch{
		Name: "two", Lib: freeLib(t), ClockGHz: 1, DefaultWordBits: 8,
		Levels: []arch.Level{
			{Name: "DRAM", Keeps: workload.AllTensorSet(), AccessComponent: "DRAM"},
			{Name: "Reg", Keeps: workload.AllTensorSet(), AccessComponent: "Reg"},
		},
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	return a
}

func setTemporal(m *mapping.Mapping, level int, factors map[workload.Dim]int, perm []workload.Dim) {
	for d, f := range factors {
		m.Levels[level].Temporal[d] = f
	}
	if perm != nil {
		m.Levels[level].Perm = perm
	}
}

// handLayer is the worked example: K2 C2 P2 Q2 R1 S1, 16 MACs.
func handLayer() workload.Layer {
	return workload.NewConv("hand", 1, 2, 2, 2, 2, 1, 1, 1, 0)
}

func TestHandComputedCountsGoodPermutation(t *testing.T) {
	a := twoLevel(t)
	l := handLayer()
	m := mapping.New(a)
	// DRAM loops: K2 outer, C2 inner. Reg loops: P2 Q2.
	setTemporal(m, 0, map[workload.Dim]int{workload.DimK: 2, workload.DimC: 2},
		[]workload.Dim{workload.DimK, workload.DimC, workload.DimN, workload.DimP, workload.DimQ, workload.DimR, workload.DimS})
	setTemporal(m, 1, map[workload.Dim]int{workload.DimP: 2, workload.DimQ: 2}, nil)

	res, err := Evaluate(a, &l, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	check := func(tensor workload.Tensor, level string, field string, got, want float64) {
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%v at %s: %s = %g, want %g", tensor, level, field, got, want)
		}
	}
	// Weights: tile 1 at Reg, refetch over K2*C2 (both relevant) = 4 fills.
	w := res.UsageOf("Reg", workload.Weights)
	check(workload.Weights, "Reg", "fills", w.Fills, 4)
	check(workload.Weights, "Reg", "reads", w.Reads, 16) // per-MAC consumption
	wd := res.UsageOf("DRAM", workload.Weights)
	check(workload.Weights, "DRAM", "reads", wd.Reads, 4)

	// Inputs: tile 4 at Reg (2x2 window block); K irrelevant but C inside
	// is relevant => refetch 4; fills 16.
	in := res.UsageOf("Reg", workload.Inputs)
	if in.TileElems != 4 {
		t.Errorf("input tile = %d, want 4", in.TileElems)
	}
	check(workload.Inputs, "Reg", "fills", in.Fills, 16)
	check(workload.Inputs, "DRAM", "reads", res.UsageOf("DRAM", workload.Inputs).Reads, 16)

	// Outputs: tile 4; stack [K2, C2]: K relevant x2, C innermost
	// irrelevant -> stationary => changes 2, distinct 2, no refills.
	o := res.UsageOf("Reg", workload.Outputs)
	check(workload.Outputs, "Reg", "arrivals", o.Arrivals, 16)
	check(workload.Outputs, "Reg", "writes", o.Writes, 8)   // first writes: 2 residencies x 4
	check(workload.Outputs, "Reg", "updates", o.Updates, 8) // remaining accumulations
	check(workload.Outputs, "Reg", "drains", o.Drains, 8)
	check(workload.Outputs, "Reg", "fills", o.Fills, 0)
	od := res.UsageOf("DRAM", workload.Outputs)
	check(workload.Outputs, "DRAM", "arrivals", od.Arrivals, 8)

	if res.Utilization != 1.0 {
		t.Errorf("utilization = %g, want 1 (perfect factorization)", res.Utilization)
	}
	if res.ComputeCycles != 16 {
		t.Errorf("cycles = %d, want 16", res.ComputeCycles)
	}
}

func TestHandComputedCountsBadPermutationThrashesPsums(t *testing.T) {
	a := twoLevel(t)
	l := handLayer()
	m := mapping.New(a)
	// DRAM loops: C2 outer, K2 inner — reduction outside relevant: psum
	// tiles at Reg are evicted half-done and must refill.
	setTemporal(m, 0, map[workload.Dim]int{workload.DimK: 2, workload.DimC: 2},
		[]workload.Dim{workload.DimC, workload.DimK, workload.DimN, workload.DimP, workload.DimQ, workload.DimR, workload.DimS})
	setTemporal(m, 1, map[workload.Dim]int{workload.DimP: 2, workload.DimQ: 2}, nil)

	res, err := Evaluate(a, &l, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	o := res.UsageOf("Reg", workload.Outputs)
	// changes = 4 (K relevant x2, C outside-relevant x2): partial tiles
	// drain twice as often as with the good permutation, and the parent
	// must absorb the extra partials with read-modify-write updates.
	if got, want := o.Drains, 16.0; got != want {
		t.Errorf("drains = %g, want %g", got, want)
	}
	od := res.UsageOf("DRAM", workload.Outputs)
	if got, want := od.Arrivals, 16.0; got != want {
		t.Errorf("DRAM psum arrivals = %g, want %g", got, want)
	}
	if od.Updates != 8 {
		t.Errorf("DRAM psum updates = %g, want 8 (each element merged twice)", od.Updates)
	}
}

func TestMulticastDiscount(t *testing.T) {
	// Buf fans out over K=2: inputs (K-irrelevant) are multicast, so DRAM
	// reads of inputs are halved relative to input fills.
	lib := freeLib(t)
	a := &arch.Arch{
		Name: "mc", Lib: lib, ClockGHz: 1, DefaultWordBits: 8,
		Levels: []arch.Level{
			{Name: "DRAM", Keeps: workload.AllTensorSet(), AccessComponent: "DRAM"},
			{
				Name: "Buf", Keeps: workload.AllTensorSet(), AccessComponent: "Buf",
				Spatial: []arch.SpatialFactor{arch.Fixed(workload.DimK, 2)},
			},
			{Name: "Reg", Keeps: workload.AllTensorSet(), AccessComponent: "Reg"},
		},
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	l := workload.NewConv("mc", 1, 4, 2, 2, 2, 1, 1, 1, 0)
	m := mapping.New(a)
	setTemporal(m, 0, map[workload.Dim]int{workload.DimK: 2, workload.DimC: 2}, nil)
	setTemporal(m, 2, map[workload.Dim]int{workload.DimP: 2, workload.DimQ: 2}, nil)

	res, err := Evaluate(a, &l, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	in := res.UsageOf("Reg", workload.Inputs)
	// Two Reg instances fill identical input tiles: multicast halves the
	// distinct reads served by Buf.
	if in.Fills != 2*in.FillsDistinct {
		t.Errorf("input fills %g, distinct %g: want 2x multicast", in.Fills, in.FillsDistinct)
	}
	w := res.UsageOf("Reg", workload.Weights)
	// Weights are K-relevant: no multicast.
	if w.Fills != w.FillsDistinct {
		t.Errorf("weight fills %g != distinct %g: weights must not multicast", w.Fills, w.FillsDistinct)
	}
	// Disabling multicast removes the discount.
	a.Levels[1].NoMulticast = true
	res2, err := Evaluate(a, &l, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	in2 := res2.UsageOf("Reg", workload.Inputs)
	if in2.Fills != in2.FillsDistinct {
		t.Errorf("NoMulticast: fills %g distinct %g should be equal", in2.Fills, in2.FillsDistinct)
	}
}

func TestSpatialReduction(t *testing.T) {
	// Buf fans out over C=2 (a reduction dim): partial sums from sibling
	// Regs merge on the way up.
	lib := freeLib(t)
	a := &arch.Arch{
		Name: "sr", Lib: lib, ClockGHz: 1, DefaultWordBits: 8,
		Levels: []arch.Level{
			{Name: "DRAM", Keeps: workload.AllTensorSet(), AccessComponent: "DRAM"},
			{
				Name: "Buf", Keeps: workload.AllTensorSet(), AccessComponent: "Buf",
				Spatial: []arch.SpatialFactor{arch.Fixed(workload.DimC, 2)},
			},
			{Name: "Reg", Keeps: workload.AllTensorSet(), AccessComponent: "Reg"},
		},
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	l := workload.NewConv("sr", 1, 2, 2, 2, 2, 1, 1, 1, 0)
	m := mapping.New(a)
	setTemporal(m, 0, map[workload.Dim]int{workload.DimK: 2}, nil)
	setTemporal(m, 2, map[workload.Dim]int{workload.DimP: 2, workload.DimQ: 2}, nil)

	res, err := Evaluate(a, &l, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	o := res.UsageOf("Reg", workload.Outputs)
	if o.DrainsMerged*2 != o.Drains {
		t.Errorf("drains %g merged %g: want 2x reduction", o.Drains, o.DrainsMerged)
	}
	// Arrivals at compute-side keeper are per-MAC (no reduction below Reg).
	if o.Arrivals != float64(l.MACs()) {
		t.Errorf("arrivals at Reg = %g, want %d", o.Arrivals, l.MACs())
	}
}

func TestStreamingStationRefillsEveryCycle(t *testing.T) {
	lib := freeLib(t)
	a := &arch.Arch{
		Name: "stream", Lib: lib, ClockGHz: 1, DefaultWordBits: 8,
		Levels: []arch.Level{
			{Name: "DRAM", Keeps: workload.AllTensorSet(), AccessComponent: "DRAM"},
			{Name: "Glb", Keeps: workload.AllTensorSet(), AccessComponent: "Buf"},
			{
				Name: "Mod", Keeps: workload.NewTensorSet(workload.Inputs), Streaming: true,
				FillVia: map[workload.Tensor][]arch.ActionRef{
					workload.Inputs: {{Component: "MZM", Action: "modulate"}},
				},
			},
		},
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	l := workload.NewConv("st", 1, 4, 1, 1, 1, 1, 1, 1, 0) // K4: 4 MACs, same input
	m := mapping.New(a)
	setTemporal(m, 1, map[workload.Dim]int{workload.DimK: 4}, nil)
	res, err := Evaluate(a, &l, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	in := res.UsageOf("Mod", workload.Inputs)
	// The single input value is re-modulated on every one of 4 cycles
	// even though it never changes — light is not storage.
	if in.Fills != 4 {
		t.Errorf("streaming fills = %g, want 4", in.Fills)
	}
	// A retaining station would fill once; check the ledger charged MZM.
	mzm := res.EnergyOf("mzm", "Inputs")
	if mzm != 4*1.0 {
		t.Errorf("MZM energy = %g, want 4", mzm)
	}
}

func TestEnergyLedgerArithmetic(t *testing.T) {
	a := twoLevel(t)
	l := handLayer()
	m := mapping.New(a)
	setTemporal(m, 0, map[workload.Dim]int{workload.DimK: 2, workload.DimC: 2}, nil)
	setTemporal(m, 1, map[workload.Dim]int{workload.DimP: 2, workload.DimQ: 2}, nil)
	res, err := Evaluate(a, &l, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, e := range res.Energy {
		sum += e.TotalPJ
		if e.TotalPJ < 0 || e.Count < 0 {
			t.Errorf("negative ledger entry: %+v", e)
		}
	}
	if math.Abs(sum-res.TotalPJ) > 1e-9 {
		t.Errorf("ledger sum %g != TotalPJ %g", sum, res.TotalPJ)
	}
	if res.PJPerMAC() <= 0 {
		t.Error("PJPerMAC should be positive")
	}
	// Grouping helpers agree with the total.
	var byComponent float64
	for _, v := range res.EnergyByComponent() {
		byComponent += v
	}
	if math.Abs(byComponent-res.TotalPJ) > 1e-9 {
		t.Errorf("EnergyByComponent sum %g != %g", byComponent, res.TotalPJ)
	}
}

func TestComputePerMACCharges(t *testing.T) {
	a := twoLevel(t)
	a.Compute = arch.Compute{Name: "mac", PerMAC: []arch.ActionRef{{Component: "Laser", Action: "supply"}}}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	l := handLayer()
	m := mapping.New(a)
	setTemporal(m, 0, map[workload.Dim]int{workload.DimK: 2, workload.DimC: 2}, nil)
	setTemporal(m, 1, map[workload.Dim]int{workload.DimP: 2, workload.DimQ: 2}, nil)
	res, err := Evaluate(a, &l, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	laser := res.EnergyOf("laser", "")
	if math.Abs(laser-16*0.25) > 1e-9 {
		t.Errorf("laser energy = %g, want 4", laser)
	}
}

func TestBandwidthBound(t *testing.T) {
	a := twoLevel(t)
	a.Levels[0].BandwidthWordsPerCycle = 0.5
	l := handLayer()
	m := mapping.New(a)
	setTemporal(m, 0, map[workload.Dim]int{workload.DimK: 2, workload.DimC: 2}, nil)
	setTemporal(m, 1, map[workload.Dim]int{workload.DimP: 2, workload.DimQ: 2}, nil)
	res, err := Evaluate(a, &l, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.BottleneckLevel != "DRAM" {
		t.Errorf("bottleneck = %q, want DRAM", res.BottleneckLevel)
	}
	if res.Cycles <= float64(res.ComputeCycles) {
		t.Errorf("bandwidth-bound cycles %g should exceed compute cycles %d", res.Cycles, res.ComputeCycles)
	}
	if res.MACsPerCycle >= float64(res.MACs)/float64(res.ComputeCycles) {
		t.Error("throughput should degrade under a bandwidth bound")
	}
}

func TestPaddedUtilization(t *testing.T) {
	a := twoLevel(t)
	l := workload.NewConv("pad", 1, 3, 1, 1, 1, 1, 1, 1, 0) // K=3
	m := mapping.New(a)
	setTemporal(m, 0, map[workload.Dim]int{workload.DimK: 4}, nil) // padded to 4
	res, err := Evaluate(a, &l, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Utilization-0.75) > 1e-9 {
		t.Errorf("utilization = %g, want 0.75", res.Utilization)
	}
	if res.MACsPerCycle >= 1 {
		t.Errorf("padded throughput = %g, want < 1 MAC/cycle", res.MACsPerCycle)
	}
}
