package mapping

import (
	"testing"
	"testing/quick"

	"photoloop/internal/arch"
	"photoloop/internal/components"
	"photoloop/internal/workload"
)

// threeLevel builds DRAM -> Buffer(K4 spatial, cap) -> Regs hierarchy.
func threeLevel(t *testing.T) *arch.Arch {
	t.Helper()
	lib := components.NewLibrary()
	dram, err := components.Build("dram", "DRAM", components.Params{"pj_per_bit": 8})
	if err != nil {
		t.Fatal(err)
	}
	lib.MustAdd(dram)
	sram, err := components.Build("sram", "Buf", components.Params{"capacity_bits": 1 << 20, "access_bits": 8})
	if err != nil {
		t.Fatal(err)
	}
	lib.MustAdd(sram)
	reg, err := components.Build("regfile", "Reg", components.Params{"access_bits": 8})
	if err != nil {
		t.Fatal(err)
	}
	lib.MustAdd(reg)

	a := &arch.Arch{
		Name: "three", Lib: lib, ClockGHz: 1, DefaultWordBits: 8,
		Levels: []arch.Level{
			{Name: "DRAM", Keeps: workload.AllTensorSet(), AccessComponent: "DRAM"},
			{
				Name: "Buffer", Keeps: workload.AllTensorSet(), AccessComponent: "Buf",
				CapacityBits: 1 << 20,
				Spatial:      []arch.SpatialFactor{arch.Fixed(workload.DimK, 4)},
				MaxFanout:    8,
			},
			{Name: "Regs", Keeps: workload.AllTensorSet(), AccessComponent: "Reg", CapacityBits: 1 << 12},
		},
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	return a
}

func smallLayer() workload.Layer {
	return workload.NewConv("l", 1, 8, 4, 6, 6, 3, 3, 1, 1)
}

// coverMapping builds a trivially valid mapping: everything temporal at
// DRAM except the rigid K4 at Buffer.
func coverMapping(a *arch.Arch, l *workload.Layer) *Mapping {
	m := New(a)
	b := l.Bounds()
	for _, d := range workload.AllDims() {
		m.Levels[0].Temporal[d] = b[d]
	}
	// Rigid spatial K4 at Buffer: shrink DRAM temporal K accordingly.
	m.Levels[0].Temporal[workload.DimK] = workload.CeilDiv(b[workload.DimK], 4)
	return m
}

func TestNewMappingIsInert(t *testing.T) {
	a := threeLevel(t)
	m := New(a)
	if got := m.PaddedBounds(a); got.Product() != 4 {
		// Only the rigid K4 factor is active.
		t.Errorf("inert padded bounds = %v", got)
	}
}

func TestValidateAcceptsCoveringMapping(t *testing.T) {
	a := threeLevel(t)
	l := smallLayer()
	m := coverMapping(a, &l)
	if err := m.Validate(a, &l); err != nil {
		t.Fatalf("valid mapping rejected: %v\n%s", err, m.String())
	}
}

func TestValidateRejectsBrokenMappings(t *testing.T) {
	a := threeLevel(t)
	l := smallLayer()
	cases := []struct {
		name string
		mut  func(m *Mapping)
	}{
		{"under-coverage", func(m *Mapping) { m.Levels[0].Temporal[workload.DimC] = 1 }},
		{"zero factor", func(m *Mapping) { m.Levels[0].Temporal[workload.DimP] = 0 }},
		{"short perm", func(m *Mapping) { m.Levels[1].Perm = m.Levels[1].Perm[:5] }},
		{"dup perm", func(m *Mapping) { m.Levels[1].Perm[0] = m.Levels[1].Perm[1] }},
		{"bad spatial choice", func(m *Mapping) { m.Levels[1].SpatialChoice[0] = workload.DimC }},
		{"missing spatial choice", func(m *Mapping) { m.Levels[1].SpatialChoice = nil }},
		{"free fanout exceeded", func(m *Mapping) {
			m.Levels[1].FreeSpatial[workload.DimC] = 16 // MaxFanout is 8
		}},
		{"free fanout where none allowed", func(m *Mapping) {
			m.Levels[2].FreeSpatial[workload.DimC] = 2 // Regs has MaxFanout 0
		}},
		{"zero free spatial", func(m *Mapping) { m.Levels[1].FreeSpatial[workload.DimC] = 0 }},
		{"wrong level count", func(m *Mapping) { m.Levels = m.Levels[:2] }},
	}
	for _, c := range cases {
		m := coverMapping(a, &l)
		c.mut(m)
		if err := m.Validate(a, &l); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestValidateCapacity(t *testing.T) {
	a := threeLevel(t)
	l := smallLayer()
	m := coverMapping(a, &l)
	// Move all of C inward to Regs: tile grows beyond Regs' 4096 bits?
	// Weights tile at Regs with C=4,R=3,S=3 = 36 elems * 8 bits plus
	// inputs/outputs — still small. Grow the layer to force overflow.
	big := workload.NewConv("big", 1, 8, 256, 6, 6, 3, 3, 1, 1)
	m = coverMapping(a, &big)
	m.Levels[0].Temporal[workload.DimC] = 1
	m.Levels[2].Temporal[workload.DimC] = 256 // weights tile = 256*3*3*8bits at Regs
	if err := m.Validate(a, &big); err == nil {
		t.Error("capacity overflow accepted")
	}
}

func TestPaddedBoundsAndUtilization(t *testing.T) {
	a := threeLevel(t)
	// K=6 with rigid K4 spatial: ceil(6/4)=2 outer, padded K=8.
	l := workload.NewConv("l", 1, 6, 4, 6, 6, 3, 3, 1, 1)
	m := coverMapping(a, &l)
	padded := m.PaddedBounds(a)
	if padded[workload.DimK] != 8 {
		t.Errorf("padded K = %d, want 8", padded[workload.DimK])
	}
	util := float64(l.MACs()) / float64(padded.Product())
	want := 6.0 / 8.0
	if util < want-1e-9 || util > want+1e-9 {
		t.Errorf("utilization = %g, want %g", util, want)
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := threeLevel(t)
	l := smallLayer()
	m := coverMapping(a, &l)
	c := m.Clone()
	c.Levels[0].Temporal[workload.DimK] = 99
	c.Levels[1].Perm[0] = workload.DimS
	c.Levels[1].SpatialChoice[0] = workload.DimN
	if m.Levels[0].Temporal[workload.DimK] == 99 {
		t.Error("Temporal aliased")
	}
	if m.Levels[1].Perm[0] == workload.DimS {
		t.Error("Perm aliased")
	}
	if m.Levels[1].SpatialChoice[0] == workload.DimN {
		t.Error("SpatialChoice aliased")
	}
}

func TestDivisors(t *testing.T) {
	cases := []struct {
		n    int
		want []int
	}{
		{1, []int{1}},
		{12, []int{1, 2, 3, 4, 6, 12}},
		{13, []int{1, 13}},
		{36, []int{1, 2, 3, 4, 6, 9, 12, 18, 36}},
	}
	for _, c := range cases {
		got := Divisors(c.n)
		if len(got) != len(c.want) {
			t.Errorf("Divisors(%d) = %v", c.n, got)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("Divisors(%d) = %v", c.n, got)
			}
		}
	}
	if Divisors(0) != nil {
		t.Error("Divisors(0) should be nil")
	}
}

func TestFactorSplits(t *testing.T) {
	splits := FactorSplits(12, 2)
	if len(splits) != 6 { // (1,12)(2,6)(3,4)(4,3)(6,2)(12,1)
		t.Errorf("FactorSplits(12,2) has %d entries", len(splits))
	}
	for _, s := range splits {
		if s[0]*s[1] != 12 {
			t.Errorf("split %v does not multiply to 12", s)
		}
	}
	if got := FactorSplits(5, 1); len(got) != 1 || got[0][0] != 5 {
		t.Errorf("FactorSplits(5,1) = %v", got)
	}
}

func TestFactorSplitsProductProperty(t *testing.T) {
	f := func(n8, k8 uint8) bool {
		n := 1 + int(n8)%30
		k := 1 + int(k8)%3
		for _, s := range FactorSplits(n, k) {
			prod := 1
			for _, v := range s {
				prod *= v
			}
			if prod != n || len(s) != k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPaddedCandidates(t *testing.T) {
	got := PaddedCandidates(6)
	// Divisors 1,2,3,6 plus ceilings 6,3,2,2,2,1 => {1,2,3,6}.
	want := []int{1, 2, 3, 6}
	if len(got) != len(want) {
		t.Fatalf("PaddedCandidates(6) = %v", got)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("PaddedCandidates(6) = %v", got)
		}
	}
	// 7 is prime: candidates include ceil-based 4 (covers 7 in 2 steps).
	got7 := PaddedCandidates(7)
	has4 := false
	for _, v := range got7 {
		if v == 4 {
			has4 = true
		}
	}
	if !has4 {
		t.Errorf("PaddedCandidates(7) = %v, want to include 4", got7)
	}
}

func TestMappingStringMentionsFactors(t *testing.T) {
	a := threeLevel(t)
	l := smallLayer()
	m := coverMapping(a, &l)
	s := m.String()
	if s == "" {
		t.Error("empty String()")
	}
}
