package arch

import (
	"strings"
	"testing"

	"photoloop/internal/components"
	"photoloop/internal/workload"
)

func testLib(t *testing.T) *components.Library {
	t.Helper()
	lib := components.NewLibrary()
	mk := func(class, name string, p components.Params) {
		c, err := components.Build(class, name, p)
		if err != nil {
			t.Fatal(err)
		}
		lib.MustAdd(c)
	}
	mk("dram", "DRAM", components.Params{"pj_per_bit": 8})
	mk("sram", "GLB", components.Params{"capacity_bits": 1 << 23, "access_bits": 64})
	mk("dac", "WeightDAC", components.Params{"bits": 8, "pj_per_bit": 0.05})
	mk("adc", "OutADC", components.Params{"bits": 8, "walden_fj_per_step": 50})
	mk("mrr", "RingBankMRR", components.Params{"program_pj": 2})
	mk("photodiode", "PD", components.Params{"detect_pj": 0.5})
	mk("laser", "Laser", components.Params{"per_mac_pj": 0.3})
	return lib
}

// testArch builds a minimal three-level photonic-flavored hierarchy.
func testArch(t *testing.T) *Arch {
	t.Helper()
	lib := testLib(t)
	a := &Arch{
		Name:            "mini",
		Lib:             lib,
		ClockGHz:        5,
		DefaultWordBits: 8,
		Levels: []Level{
			{
				Name: "DRAM", Domain: DE,
				Keeps:           workload.AllTensorSet(),
				AccessComponent: "DRAM",
			},
			{
				Name: "GlobalBuffer", Domain: DE,
				CapacityBits:    1 << 23,
				Keeps:           workload.AllTensorSet(),
				AccessComponent: "GLB",
				Spatial:         []SpatialFactor{Fixed(workload.DimK, 4)},
			},
			{
				Name: "RingBank", Domain: AO,
				CapacityBits: 9 * 8 * 64,
				Keeps:        workload.NewTensorSet(workload.Weights),
				FillVia: map[workload.Tensor][]ActionRef{
					workload.Weights: {
						{Component: "WeightDAC", Action: "convert"},
						{Component: "RingBankMRR", Action: "program"},
					},
				},
			},
		},
		Compute: Compute{
			Name: "OpticalMAC", Domain: AO,
			PerMAC: []ActionRef{{Component: "Laser", Action: "supply"}},
		},
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	return a
}

func TestDomainParsing(t *testing.T) {
	for _, d := range []Domain{DE, AE, AO, DO} {
		got, err := ParseDomain(d.String())
		if err != nil || got != d {
			t.Errorf("ParseDomain(%s) = %v, %v", d, got, err)
		}
	}
	if _, err := ParseDomain("XY"); err == nil {
		t.Error("ParseDomain(XY) succeeded")
	}
	if (Crossing{DE, AE}).String() != "DE/AE" {
		t.Error("Crossing.String wrong")
	}
}

func TestTensorSet(t *testing.T) {
	s := workload.NewTensorSet(workload.Weights, workload.Outputs)
	if !s.Has(workload.Weights) || s.Has(workload.Inputs) || !s.Has(workload.Outputs) {
		t.Error("membership wrong")
	}
	if all := workload.AllTensorSet(); !all.Has(workload.Weights) || !all.Has(workload.Inputs) || !all.Has(workload.Outputs) {
		t.Error("AllTensorSet wrong")
	}
	if got := s.String(); got != "{Weights,Outputs}" {
		t.Errorf("String = %s", got)
	}
	var empty workload.TensorSet
	if !empty.Empty() || empty.String() != "{}" {
		t.Error("empty set wrong")
	}
}

func TestArchAccessors(t *testing.T) {
	a := testArch(t)
	if a.NumLevels() != 3 {
		t.Fatalf("NumLevels = %d", a.NumLevels())
	}
	l, i, err := a.LevelByName("GlobalBuffer")
	if err != nil || i != 1 || l.Name != "GlobalBuffer" {
		t.Errorf("LevelByName = %v %d %v", l, i, err)
	}
	if _, _, err := a.LevelByName("L2"); err == nil {
		t.Error("LevelByName(L2) succeeded")
	}
	if got := a.KeepLevels(workload.Weights); len(got) != 3 {
		t.Errorf("weights keep levels = %v", got)
	}
	if got := a.KeepLevels(workload.Inputs); len(got) != 2 {
		t.Errorf("inputs keep levels = %v", got)
	}
	if a.PeakMACsPerCycle() != 4 {
		t.Errorf("peak = %d", a.PeakMACsPerCycle())
	}
	if a.InstancesAtLevel(0) != 1 || a.InstancesAtLevel(2) != 4 {
		t.Errorf("instances = %d %d", a.InstancesAtLevel(0), a.InstancesAtLevel(2))
	}
}

func TestSpatialFactor(t *testing.T) {
	f := Choice(9, workload.DimS, workload.DimC)
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	if !f.Allows(workload.DimS) || !f.Allows(workload.DimC) || f.Allows(workload.DimK) {
		t.Error("Allows wrong")
	}
	bad := SpatialFactor{Count: 0, Dims: []workload.Dim{workload.DimK}}
	if err := bad.Validate(); err == nil {
		t.Error("accepted zero count")
	}
	bad = SpatialFactor{Count: 2}
	if err := bad.Validate(); err == nil {
		t.Error("accepted empty dims")
	}
	bad = Choice(2, workload.DimK, workload.DimK)
	if err := bad.Validate(); err == nil {
		t.Error("accepted duplicate dims")
	}
	bad = Choice(2, workload.NumDims)
	if err := bad.Validate(); err == nil {
		t.Error("accepted invalid dim")
	}
}

func TestLevelFanoutAndFreeDims(t *testing.T) {
	l := Level{
		Spatial:   []SpatialFactor{Fixed(workload.DimK, 3), Fixed(workload.DimQ, 32)},
		MaxFanout: 4,
	}
	if l.RigidFanout() != 96 {
		t.Errorf("RigidFanout = %d", l.RigidFanout())
	}
	if l.MaxTotalFanout() != 384 {
		t.Errorf("MaxTotalFanout = %d", l.MaxTotalFanout())
	}
	p := l.CanonicalSpatial()
	if p[workload.DimK] != 3 || p[workload.DimQ] != 32 {
		t.Errorf("CanonicalSpatial = %v", p)
	}
	if !l.AllowsFreeDim(workload.DimC) {
		t.Error("empty FreeSpatialDims should allow everything")
	}
	l.FreeSpatialDims = []workload.Dim{workload.DimK}
	if l.AllowsFreeDim(workload.DimC) || !l.AllowsFreeDim(workload.DimK) {
		t.Error("FreeSpatialDims filter wrong")
	}
}

func TestArchValidateCatchesErrors(t *testing.T) {
	breakArch := func(f func(*Arch)) error {
		a := testArch(t)
		f(a)
		return a.Validate()
	}
	cases := []struct {
		name  string
		mutar func(*Arch)
	}{
		{"no name", func(a *Arch) { a.Name = "" }},
		{"no levels", func(a *Arch) { a.Levels = nil }},
		{"no lib", func(a *Arch) { a.Lib = nil }},
		{"zero clock", func(a *Arch) { a.ClockGHz = 0 }},
		{"zero word bits", func(a *Arch) { a.DefaultWordBits = 0 }},
		{"dup level names", func(a *Arch) { a.Levels[1].Name = "DRAM" }},
		{"empty level name", func(a *Arch) { a.Levels[1].Name = "" }},
		{"negative capacity", func(a *Arch) { a.Levels[1].CapacityBits = -1 }},
		{"keeps nothing", func(a *Arch) { a.Levels[1].Keeps = 0 }},
		{"no keeper anywhere", func(a *Arch) {
			// Outputs kept nowhere: DRAM and GLB drop them, RingBank
			// only keeps weights.
			a.Levels[0].Keeps = workload.NewTensorSet(workload.Weights, workload.Inputs)
			a.Levels[1].Keeps = workload.NewTensorSet(workload.Weights, workload.Inputs)
		}},
		{"bad access component", func(a *Arch) { a.Levels[1].AccessComponent = "nope" }},
		{"bad converter component", func(a *Arch) {
			a.Levels[2].FillVia[workload.Weights] = []ActionRef{{Component: "nope", Action: "convert"}}
		}},
		{"bad converter action", func(a *Arch) {
			a.Levels[2].FillVia[workload.Weights] = []ActionRef{{Component: "PD", Action: "convert"}}
		}},
		{"converter for bypassed tensor", func(a *Arch) {
			a.Levels[2].FillVia[workload.Inputs] = []ActionRef{{Component: "WeightDAC", Action: "convert"}}
		}},
		{"bad compute ref", func(a *Arch) { a.Compute.PerMAC[0].Component = "nope" }},
		{"bad spatial factor", func(a *Arch) { a.Levels[1].Spatial[0].Count = -2 }},
		{"negative max fanout", func(a *Arch) { a.Levels[1].MaxFanout = -1 }},
	}
	for _, c := range cases {
		if err := breakArch(c.mutar); err == nil {
			t.Errorf("%s: Validate accepted broken arch", c.name)
		}
	}
}

func TestDomainGaps(t *testing.T) {
	a := testArch(t)
	// RingBank (AO) fills weights from GlobalBuffer (DE) via converters —
	// no gap. Inputs and outputs never leave DE. So no gaps.
	if gaps := a.DomainGaps(); len(gaps) != 0 {
		t.Errorf("unexpected gaps: %v", gaps)
	}
	// Remove the converter chain: now the weights edge is a gap.
	delete(a.Levels[2].FillVia, workload.Weights)
	gaps := a.DomainGaps()
	if len(gaps) != 1 || !strings.Contains(gaps[0], "DE/AO") {
		t.Errorf("gaps = %v, want one DE/AO gap", gaps)
	}
}

func TestAreaRollup(t *testing.T) {
	a := testArch(t)
	area, err := a.Area()
	if err != nil {
		t.Fatal(err)
	}
	if area <= 0 {
		t.Errorf("area = %g", area)
	}
	// GLB area should dominate this tiny arch (8Mbit SRAM).
	glb, _ := a.Lib.Get("GLB")
	if area < glb.Area() {
		t.Errorf("area %g < GLB alone %g", area, glb.Area())
	}
	// RingBank converters are replicated across 4 instances (K=4 fanout
	// at GLB): removing the fanout should shrink area.
	a2 := testArch(t)
	a2.Levels[1].Spatial = nil
	area2, err := a2.Area()
	if err != nil {
		t.Fatal(err)
	}
	if area2 >= area {
		t.Errorf("area without fanout %g >= with fanout %g", area2, area)
	}
}

func TestActionRefCount(t *testing.T) {
	if (ActionRef{}).Count() != 1 {
		t.Error("default PerWord should be 1")
	}
	if (ActionRef{PerWord: 2.5}).Count() != 2.5 {
		t.Error("explicit PerWord ignored")
	}
	if (ActionRef{PerWord: -1}).Count() != 1 {
		t.Error("negative PerWord should default to 1")
	}
}

func TestEffectiveWordBits(t *testing.T) {
	l := Level{}
	if l.EffectiveWordBits(8) != 8 {
		t.Error("default word bits")
	}
	l.WordBits = 16
	if l.EffectiveWordBits(8) != 16 {
		t.Error("override word bits")
	}
}
