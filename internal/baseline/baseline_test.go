package baseline

import (
	"testing"

	"photoloop/internal/albireo"
	"photoloop/internal/mapper"
	"photoloop/internal/workload"
)

func TestDefaultMatchesAlbireoPeak(t *testing.T) {
	c := Default()
	if c.Rows*c.Cols != 6912 {
		t.Errorf("peak = %d, want 6912", c.Rows*c.Cols)
	}
	a, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	if a.PeakMACsPerCycle() != 6912 {
		t.Errorf("arch peak = %d", a.PeakMACsPerCycle())
	}
	if gaps := a.DomainGaps(); len(gaps) != 0 {
		t.Errorf("all-DE arch has domain gaps: %v", gaps)
	}
}

func TestBuildRejectsBadConfigs(t *testing.T) {
	for _, mut := range []func(*Config){
		func(c *Config) { c.Rows = 0 },
		func(c *Config) { c.MACBits = 0 },
		func(c *Config) { c.GLBMiB = 0 },
		func(c *Config) { c.ClockGHz = 0 },
	} {
		c := Default()
		mut(&c)
		if _, err := c.Build(); err == nil {
			t.Errorf("accepted broken config %+v", c)
		}
	}
}

func TestBaselineMapsWorkloads(t *testing.T) {
	a, err := Default().Build()
	if err != nil {
		t.Fatal(err)
	}
	layers := []workload.Layer{
		workload.NewConv("conv", 1, 128, 128, 28, 28, 3, 3, 1, 1),
		workload.NewFC("fc", 1, 1000, 512),
	}
	for _, l := range layers {
		best, err := mapper.Search(a, &l, mapper.Options{Budget: 800, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		if best.Result.PJPerMAC() <= 0 {
			t.Errorf("%s: bad energy", l.Name)
		}
		// A digital systolic array maps FC layers well (K and C both
		// available spatially).
		if l.Type == workload.FC && best.Result.Utilization < 0.5 {
			t.Errorf("fc utilization %.2f, want >= 0.5 on a flexible array", best.Result.Utilization)
		}
	}
}

// The comparison the paper's framing motivates, in three parts: (1) the
// photonic marginal MAC (laser supply + ring transit) is cheaper than a
// digital MAC; (2) at conservative scaling the conversion wall erases that
// advantage at the accelerator level; (3) with DRAM attached, both systems
// are dominated by the same memory — which is exactly why the paper
// insists on full-system (accelerator + DRAM) modeling.
func TestPhotonicVsElectricalNarrative(t *testing.T) {
	l := workload.NewConv("conv", 1, 96, 64, 32, 32, 3, 3, 1, 1)

	elec, err := Default().Build()
	if err != nil {
		t.Fatal(err)
	}
	eBest, err := mapper.Search(elec, &l, mapper.Options{Budget: 1500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ePJ := eBest.Result.PJPerMAC()
	eAccelPJ := albireo.AcceleratorPJ(eBest.Result) / float64(eBest.Result.MACs)
	eMACPJ := eBest.Result.EnergyOf("digital_mac", "") / float64(eBest.Result.MACs)

	type photonics struct{ total, accel, macOnly float64 }
	byScaling := map[albireo.Scaling]photonics{}
	for _, s := range []albireo.Scaling{albireo.Conservative, albireo.Aggressive} {
		a, err := albireo.Default(s).Build()
		if err != nil {
			t.Fatal(err)
		}
		pBest, err := mapper.Search(a, &l, mapper.Options{
			Budget: 1500, Seed: 1,
			Seeds: mapper.SeedList(albireo.CanonicalMappings(a, &l)),
		})
		if err != nil {
			t.Fatal(err)
		}
		r := pBest.Result
		byScaling[s] = photonics{
			total:   r.PJPerMAC(),
			accel:   albireo.AcceleratorPJ(r) / float64(r.MACs),
			macOnly: (r.EnergyOf("laser", "") + r.EnergyOf("mrr", "")) / float64(r.MACs),
		}
	}
	cons, aggr := byScaling[albireo.Conservative], byScaling[albireo.Aggressive]

	// (1) Under the aggressive projection the marginal optical MAC
	// (laser + ring) undercuts the digital MAC; conservatively it does
	// not — optical wins are a scaling bet, not a present-day free lunch.
	if aggr.macOnly >= eMACPJ {
		t.Errorf("aggressive optical MAC %.3f pJ should undercut digital MAC %.3f", aggr.macOnly, eMACPJ)
	}
	if cons.macOnly <= eMACPJ {
		t.Errorf("conservative optical MAC %.3f pJ is expected to exceed digital MAC %.3f", cons.macOnly, eMACPJ)
	}
	// (2) The conversion wall: the conservative photonic accelerator
	// costs more per MAC than the whole electrical accelerator.
	if cons.accel <= eAccelPJ {
		t.Errorf("conservative photonic accel %.3f pJ/MAC should exceed electrical accel %.3f (conversion wall)",
			cons.accel, eAccelPJ)
	}
	// Aggressive scaling shrinks the gap dramatically.
	if aggr.accel >= cons.accel/3 {
		t.Errorf("aggressive accel %.3f should be well under a third of conservative %.3f", aggr.accel, cons.accel)
	}
	// (3) Full systems converge on the same DRAM bill: the difference
	// between aggressive-photonic and electrical totals is smaller than
	// the DRAM energy itself.
	dram := aggr.total - aggr.accel
	if diff := abs(aggr.total - ePJ); diff >= dram {
		t.Errorf("system totals differ by %.3f pJ/MAC, more than the shared DRAM bill %.3f — full-system modeling verdict broken",
			diff, dram)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
