package arch

import (
	"testing"

	"photoloop/internal/components"
	"photoloop/internal/workload"
)

func fpArch(t *testing.T, mutate func(*Arch)) uint64 {
	t.Helper()
	a := &Arch{
		Name: "fp", Lib: testLib(t), ClockGHz: 1, DefaultWordBits: 8,
		Levels: []Level{
			{Name: "DRAM", Keeps: workload.AllTensorSet(), AccessComponent: "DRAM"},
			{
				Name: "GLB", Keeps: workload.AllTensorSet(), AccessComponent: "GLB",
				CapacityBits: 1 << 23,
				Spatial:      []SpatialFactor{Choice(4, workload.DimK, workload.DimC)},
				FillVia: map[workload.Tensor][]ActionRef{
					workload.Weights: {{Component: "WeightDAC", Action: "convert"}},
				},
			},
		},
		Compute: Compute{Name: "mac", Domain: DE},
	}
	if mutate != nil {
		mutate(a)
	}
	return a.Fingerprint()
}

func TestFingerprintStableAndDiscriminating(t *testing.T) {
	base := fpArch(t, nil)
	if base != fpArch(t, nil) {
		t.Fatal("fingerprint not deterministic")
	}
	mutations := map[string]func(*Arch){
		"name":           func(a *Arch) { a.Name = "other" },
		"clock":          func(a *Arch) { a.ClockGHz = 2 },
		"word bits":      func(a *Arch) { a.DefaultWordBits = 16 },
		"level capacity": func(a *Arch) { a.Levels[1].CapacityBits = 1 << 22 },
		"level keeps":    func(a *Arch) { a.Levels[1].Keeps = workload.NewTensorSet(workload.Weights) },
		"level domain":   func(a *Arch) { a.Levels[1].Domain = AO },
		"streaming":      func(a *Arch) { a.Levels[1].Streaming = true },
		"bandwidth":      func(a *Arch) { a.Levels[0].BandwidthWordsPerCycle = 32 },
		"spatial count":  func(a *Arch) { a.Levels[1].Spatial[0].Count = 8 },
		"spatial dims":   func(a *Arch) { a.Levels[1].Spatial[0].Dims = []workload.Dim{workload.DimC} },
		"converter":      func(a *Arch) { a.Levels[1].FillVia[workload.Weights][0].PerWord = 2 },
		"drop converter": func(a *Arch) { delete(a.Levels[1].FillVia, workload.Weights) },
		"compute ref": func(a *Arch) {
			a.Compute.PerMAC = []ActionRef{{Component: "Laser", Action: "supply"}}
		},
		"overlap": func(a *Arch) { a.Levels[1].InputOverlapSharing = true },
		// DimN encodes as 0: a delimiter bug would make [DimN] collide
		// with the empty slice followed by zero-valued fields.
		"free spatial dims": func(a *Arch) { a.Levels[1].FreeSpatialDims = []workload.Dim{workload.DimN} },
		"max fanout":        func(a *Arch) { a.Levels[1].MaxFanout = 4 },
	}
	for name, m := range mutations {
		if fpArch(t, m) == base {
			t.Errorf("mutation %q did not change the fingerprint", name)
		}
	}
}

// TestFingerprintSeesComponentEnergies is what makes cross-variant dedupe
// safe: two structurally identical architectures whose components differ
// only in a parameter (a sweep's component override) must not collide.
// Static power is not charged, but stored search keys hash it, so a
// change to it must still move the fingerprint.
func TestFingerprintSeesComponentEnergies(t *testing.T) {
	build := func(adcFJ, dramStaticMW float64) uint64 {
		lib := components.NewLibrary()
		for _, c := range []struct {
			class, name string
			p           components.Params
		}{
			{"dram", "DRAM", components.Params{"pj_per_bit": 8, "static_mw": dramStaticMW}},
			{"adc", "ADC", components.Params{"bits": 8, "walden_fj_per_step": adcFJ}},
		} {
			comp, err := components.Build(c.class, c.name, c.p)
			if err != nil {
				t.Fatal(err)
			}
			lib.MustAdd(comp)
		}
		a := &Arch{
			Name: "same", Lib: lib, ClockGHz: 1, DefaultWordBits: 8,
			Levels: []Level{
				{Name: "DRAM", Keeps: workload.AllTensorSet(), AccessComponent: "DRAM",
					DrainVia: map[workload.Tensor][]ActionRef{
						workload.Outputs: {{Component: "ADC", Action: "convert"}},
					}},
			},
		}
		return a.Fingerprint()
	}
	if build(50, 0) == build(51, 0) {
		t.Error("component energy change invisible to fingerprint")
	}
	if build(50, 1) == build(50, 2) {
		t.Error("component static power change invisible to fingerprint")
	}
	if build(50, 0) != build(50, 0) {
		t.Error("equal architectures hash differently")
	}
}
