package albireo

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"photoloop/internal/model"
	"photoloop/internal/workload"
)

func TestScalingNames(t *testing.T) {
	for _, s := range AllScalings() {
		got, err := ParseScaling(s.String())
		if err != nil || got != s {
			t.Errorf("ParseScaling(%s) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseScaling("hyper"); err == nil {
		t.Error("ParseScaling(hyper) succeeded")
	}
}

func TestParamsScaleMonotonically(t *testing.T) {
	cons := ParamsFor(Conservative)
	mod := ParamsFor(Moderate)
	agg := ParamsFor(Aggressive)
	checks := []struct {
		name string
		f    func(Params) float64
	}{
		{"MZM", func(p Params) float64 { return p.MZMModulatePJ }},
		{"MRRProgram", func(p Params) float64 { return p.MRRProgramPJ }},
		{"PD", func(p Params) float64 { return p.PDDetectPJ }},
		{"Laser", func(p Params) float64 { return p.LaserPerMACPJ }},
		{"InputDAC", func(p Params) float64 { return p.InputDACPJPerBit }},
		{"ADC", func(p Params) float64 { return p.ADCWaldenFJPerStep }},
		{"SRAM", func(p Params) float64 { return p.SRAMScale }},
	}
	for _, c := range checks {
		if !(c.f(cons) > c.f(mod) && c.f(mod) > c.f(agg)) {
			t.Errorf("%s does not scale down: %g %g %g", c.name, c.f(cons), c.f(mod), c.f(agg))
		}
	}
	// DRAM does not improve with photonic scaling.
	if cons.DRAMPJPerBit != agg.DRAMPJPerBit {
		t.Error("DRAM energy should be scaling independent")
	}
}

func TestDefaultConfig(t *testing.T) {
	c := Default(Conservative)
	if c.IR() != 9 || c.OR() != 3 {
		t.Errorf("default IR=%d OR=%d, want 9 and 3", c.IR(), c.OR())
	}
	a, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	if a.PeakMACsPerCycle() != 6912 {
		t.Errorf("peak = %d, want 6912 (8 clusters x 32 lanes x 3 K x 9 slots)", a.PeakMACsPerCycle())
	}
}

func TestBuildValidatesArch(t *testing.T) {
	for _, s := range AllScalings() {
		for _, wr := range []bool{false, true} {
			c := Default(s)
			c.WeightReuse = wr
			a, err := c.Build()
			if err != nil {
				t.Fatalf("%s wr=%v: %v", s, wr, err)
			}
			if err := a.Validate(); err != nil {
				t.Errorf("%s wr=%v: %v", s, wr, err)
			}
			if gaps := a.DomainGaps(); len(gaps) != 0 {
				t.Errorf("%s wr=%v: domain gaps: %v", s, wr, gaps)
			}
			want := int64(c.Clusters) * int64(c.PixelLanes) * int64(c.OutputLanes) * 9 * int64(c.ORLanes)
			if a.PeakMACsPerCycle() != want {
				t.Errorf("%s wr=%v: arch peak %d != config peak %d",
					s, wr, a.PeakMACsPerCycle(), want)
			}
			if area, err := a.Area(); err != nil || area <= 0 {
				t.Errorf("%s wr=%v: area %g, %v", s, wr, area, err)
			}
		}
	}
}

func TestBuildRejectsBadConfigs(t *testing.T) {
	bad := Default(Conservative)
	bad.Clusters = 0
	if _, err := bad.Build(); err == nil {
		t.Error("accepted 0 clusters")
	}
	bad = Default(Conservative)
	bad.GLBMiB = 0
	if _, err := bad.Build(); err == nil {
		t.Error("accepted 0 GLB")
	}
	bad = Default(Conservative)
	bad.WordBits = 0
	if _, err := bad.Build(); err == nil {
		t.Error("accepted 0 word bits")
	}
}

func TestReuseVariantsScalePeak(t *testing.T) {
	c := Default(Aggressive)
	c.OutputLanes = 9 // IR = 27
	c.ORLanes = 3     // OR = 9
	if c.IR() != 27 || c.OR() != 9 {
		t.Fatalf("IR=%d OR=%d", c.IR(), c.OR())
	}
	a, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := a.PeakMACsPerCycle(), int64(8*32*9*9*3); got != want {
		t.Errorf("peak = %d, want %d", got, want)
	}
}

func TestCanonicalMappingsValidate(t *testing.T) {
	layers := []workload.Layer{
		workload.NewConv("conv3x3", 1, 128, 128, 28, 28, 3, 3, 1, 1),
		workload.NewConv("conv7x7s2", 1, 64, 3, 112, 112, 7, 7, 2, 3),
		workload.NewConv("conv1x1s2", 1, 128, 64, 28, 28, 1, 1, 2, 0),
		workload.NewFC("fc", 1, 1000, 512),
		workload.NewConv("batched", 8, 64, 64, 56, 56, 3, 3, 1, 1),
	}
	for _, wr := range []bool{false, true} {
		c := Default(Aggressive)
		c.WeightReuse = wr
		a, err := c.Build()
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range layers {
			cands := CanonicalMappings(a, &l)
			if len(cands) == 0 {
				t.Errorf("wr=%v %s: no canonical mapping", wr, l.Name)
				continue
			}
			for _, m := range cands {
				if err := m.Validate(a, &l); err != nil {
					t.Errorf("wr=%v %s: invalid canonical mapping: %v", wr, l.Name, err)
				}
			}
			if _, err := CanonicalBest(a, &l); err != nil {
				t.Errorf("wr=%v %s: %v", wr, l.Name, err)
			}
		}
	}
}

func TestCanonicalKeepsRingsStationary(t *testing.T) {
	// The canonical schedule programs each ring once per weight: total
	// programs = weights x pixel-lane duplication, not x pixel steps.
	a, err := Default(Conservative).Build()
	if err != nil {
		t.Fatal(err)
	}
	l := workload.NewConv("l", 1, 96, 64, 32, 32, 3, 3, 1, 1)
	m, err := CanonicalBest(a, &l)
	if err != nil {
		t.Fatal(err)
	}
	res, err := model.Evaluate(a, &l, m, model.Options{})
	if err != nil {
		t.Fatal(err)
	}
	u := res.UsageOf("RingBank", workload.Weights)
	if u == nil {
		t.Fatal("no ring bank usage")
	}
	weights := float64(l.TensorElems(workload.Weights))
	dup := 32.0 // pixel lanes replicate each weight
	if math.Abs(u.Fills-weights*dup) > 1e-6 {
		t.Errorf("ring programs = %g, want %g (weights x 32 lanes)", u.Fills, weights*dup)
	}
}

func TestFig2BinClassification(t *testing.T) {
	cases := []struct {
		class, action, tensor string
		want                  Fig2Bin
	}{
		{"mrr", "program", "Weights", BinMRR},
		{"mzm", "modulate", "Inputs", BinMZM},
		{"laser", "supply", "", BinLaser},
		{"photodiode", "detect", "Outputs", BinAOAE},
		{"dac", "convert", "Inputs", BinDEAE},
		{"adc", "convert", "Outputs", BinAEDE},
		{"sram", "read", "Inputs", BinCache},
		{"dram", "read", "Weights", BinDRAM},
		{"wire", "transfer", "", BinOther},
	}
	for _, c := range cases {
		e := model.EnergyItem{Class: c.class, Action: c.action, Tensor: c.tensor}
		if got := ClassifyFig2(&e); got != c.want {
			t.Errorf("ClassifyFig2(%s) = %v, want %v", c.class, got, c.want)
		}
	}
}

func TestRoleBinClassification(t *testing.T) {
	cases := []struct {
		class, action, tensor string
		want                  RoleBin
	}{
		{"mrr", "program", "Weights", RoleWeightConv},
		{"mrr", "transit", "", RoleOtherAO},
		{"mzm", "modulate", "Inputs", RoleInputConv},
		{"laser", "supply", "", RoleOtherAO},
		{"photodiode", "detect", "Outputs", RoleOutputConv},
		{"adc", "convert", "Outputs", RoleOutputConv},
		{"dac", "convert", "Weights", RoleWeightConv},
		{"dac", "convert", "Inputs", RoleInputConv},
		{"sram", "read", "Inputs", RoleBuffer},
		{"dram", "write", "Outputs", RoleDRAM},
	}
	for _, c := range cases {
		e := model.EnergyItem{Class: c.class, Action: c.action, Tensor: c.tensor}
		if got := ClassifyRole(&e); got != c.want {
			t.Errorf("ClassifyRole(%s/%s) = %v, want %v", c.class, c.action, got, c.want)
		}
	}
}

func TestBreakdownsSumToTotal(t *testing.T) {
	a, err := Default(Moderate).Build()
	if err != nil {
		t.Fatal(err)
	}
	l := workload.NewConv("l", 1, 96, 64, 32, 32, 3, 3, 1, 1)
	m, err := CanonicalBest(a, &l)
	if err != nil {
		t.Fatal(err)
	}
	res, err := model.Evaluate(a, &l, m, model.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var f2, role float64
	for _, v := range Fig2Breakdown(res) {
		f2 += v
	}
	for _, v := range RoleBreakdown(res) {
		role += v
	}
	if math.Abs(f2-res.TotalPJ) > 1e-6 || math.Abs(role-res.TotalPJ) > 1e-6 {
		t.Errorf("breakdowns don't cover the ledger: fig2 %g role %g total %g", f2, role, res.TotalPJ)
	}
	if AcceleratorPJ(res) >= res.TotalPJ {
		t.Error("accelerator energy should exclude DRAM")
	}
	if ConverterPJ(res) <= 0 || ConverterPJ(res) >= res.TotalPJ {
		t.Errorf("converter energy %g out of range (total %g)", ConverterPJ(res), res.TotalPJ)
	}
}

// TestRoleHelpersMatchConcatenatedLedger pins the role helpers' variadic
// form, which the whole-network figures call over a sweep point's
// per-layer results: walking the results and then each ledger in order is
// the addition order of one concatenated ledger, so every helper over
// rs... equals, bit for bit, the helper over a result holding the
// appended ledgers. ResNet-18's layers are enough for per-result partial
// sums to round differently, so a helper that summed each result first
// would fail here.
func TestRoleHelpersMatchConcatenatedLedger(t *testing.T) {
	a, err := Default(Aggressive).Build()
	if err != nil {
		t.Fatal(err)
	}
	layers := workload.ResNet18(1).Layers
	var rs []*model.Result
	concat := &model.Result{}
	for i := range layers {
		m, err := CanonicalBest(a, &layers[i])
		if err != nil {
			t.Fatal(err)
		}
		r, err := model.Evaluate(a, &layers[i], m, model.Options{})
		if err != nil {
			t.Fatal(err)
		}
		rs = append(rs, r)
		concat.Energy = append(concat.Energy, r.Energy...)
	}
	if got, want := RoleBreakdown(rs...), RoleBreakdown(concat); !reflect.DeepEqual(got, want) {
		t.Errorf("RoleBreakdown over results %v, concatenated %v", got, want)
	}
	if got, want := AcceleratorPJ(rs...), AcceleratorPJ(concat); got != want {
		t.Errorf("AcceleratorPJ over results %.17g, concatenated %.17g", got, want)
	}
	if got, want := ConverterPJ(rs...), ConverterPJ(concat); got != want || got <= 0 {
		t.Errorf("ConverterPJ over results %.17g, concatenated %.17g", got, want)
	}
	if got := RoleBreakdown(); got == nil || len(got) != 0 {
		t.Errorf("RoleBreakdown() = %v, want an empty map", got)
	}
	if AcceleratorPJ() != 0 || ConverterPJ() != 0 {
		t.Errorf("AcceleratorPJ() = %g, ConverterPJ() = %g, want 0", AcceleratorPJ(), ConverterPJ())
	}
}

func TestReportedTablesComplete(t *testing.T) {
	for _, s := range AllScalings() {
		rep := ReportedFig2(s)
		for _, bin := range Fig2Bins() {
			if rep[bin] <= 0 {
				t.Errorf("%s: reported %s missing", s, bin)
			}
		}
		if tot := ReportedFig2Total(s); tot <= 0 {
			t.Errorf("%s: zero reported total", s)
		}
	}
	// Reported totals must decrease with more aggressive scaling.
	if !(ReportedFig2Total(Conservative) > ReportedFig2Total(Moderate) &&
		ReportedFig2Total(Moderate) > ReportedFig2Total(Aggressive)) {
		t.Error("reported totals not monotone across scalings")
	}
	refs := ReportedFig3()
	for _, name := range []string{"vgg16", "alexnet"} {
		r, ok := refs[name]
		if !ok || r.Ideal <= 0 || r.Reported <= 0 || r.Reported > r.Ideal {
			t.Errorf("fig3 reference for %s broken: %+v", name, r)
		}
	}
}

// TestFusedConfig pins the fusion policy at each layer position: the DRAM
// backs weights always, plus the network's inputs at the first layer and
// its outputs at the last (so a middle layer's DRAM carries no activation
// traffic); the global buffer at least doubles; and every position's
// config builds with those keeps on its DRAM level.
func TestFusedConfig(t *testing.T) {
	net := workload.Network{Name: "mini", Layers: []workload.Layer{
		workload.NewConv("c1", 1, 64, 64, 28, 28, 3, 3, 1, 1),
		workload.NewConv("c2", 1, 64, 64, 28, 28, 3, 3, 1, 1),
		workload.NewConv("c3", 1, 64, 64, 28, 28, 3, 3, 1, 1),
	}}
	w, in, out := workload.Weights, workload.Inputs, workload.Outputs
	base := Default(Aggressive)
	for i, keeps := range []workload.TensorSet{
		workload.NewTensorSet(w, in),
		workload.NewTensorSet(w),
		workload.NewTensorSet(w, out),
	} {
		c := base.Fused(&net, i)
		if c.DRAMKeeps != keeps {
			t.Errorf("layer %d: DRAM keeps %v, want %v", i, c.DRAMKeeps, keeps)
		}
		if c.GLBMiB < 2*base.GLBMiB {
			t.Errorf("layer %d: fused GLB %d MiB, want at least 2x %d", i, c.GLBMiB, base.GLBMiB)
		}
		a, err := c.Build()
		if err != nil {
			t.Fatalf("layer %d: %v", i, err)
		}
		if dram := a.Level(0); dram.Name != "DRAM" || dram.Keeps != keeps {
			t.Errorf("layer %d: built level 0 %s keeps %v, want DRAM keeping %v", i, dram.Name, dram.Keeps, keeps)
		}
	}
	// A one-layer network's layer is both the first and the last.
	one := workload.Network{Name: "one", Layers: net.Layers[:1]}
	if got := base.Fused(&one, 0).DRAMKeeps; got != workload.NewTensorSet(w, in, out) {
		t.Errorf("one-layer fused DRAM keeps %v, want all", got)
	}
}

func TestArchNamesEncodeVariant(t *testing.T) {
	c := Default(Aggressive)
	c.OutputLanes = 9
	c.ORLanes = 3
	c.WeightReuse = true
	a, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"aggressive", "ir27", "or9", "wrtrue"} {
		if !strings.Contains(a.Name, want) {
			t.Errorf("arch name %q missing %q", a.Name, want)
		}
	}
}

func TestLaserFromBudget(t *testing.T) {
	// The physical link-budget laser should land within a factor of a
	// few of the calibrated conservative constant (0.5 pJ/MAC) — the
	// calibration is supposed to be physically plausible.
	c := Default(Conservative)
	c.LaserFromBudget = true
	a, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	laser, err := a.Lib.Get("CombLaser")
	if err != nil {
		t.Fatal(err)
	}
	pj, err := laser.Energy("supply")
	if err != nil {
		t.Fatal(err)
	}
	if pj < 0.05 || pj > 5 {
		t.Errorf("budget-derived laser = %g pJ/MAC, implausible vs calibrated 0.5", pj)
	}

	// Fan-out invariance: the IR-way split loss grows linearly with IR
	// while the carrier feeds IR multipliers, so per-MAC laser energy is
	// IR-invariant (the split loss and the amortization cancel exactly).
	c27 := c
	c27.OutputLanes = 9 // IR = 27
	a27, err := c27.Build()
	if err != nil {
		t.Fatal(err)
	}
	laser27, _ := a27.Lib.Get("CombLaser")
	pj27, _ := laser27.Energy("supply")
	if math.Abs(pj27-pj)/pj > 1e-9 {
		t.Errorf("per-MAC laser energy should be IR-invariant: IR9 %g vs IR27 %g", pj, pj27)
	}

	// Weight reuse adds a real distribution stage: per-MAC laser rises.
	cwr := c
	cwr.WeightReuse = true
	awr, err := cwr.Build()
	if err != nil {
		t.Fatal(err)
	}
	laserWR, _ := awr.Lib.Get("CombLaser")
	pjWR, _ := laserWR.Energy("supply")
	if pjWR <= pj {
		t.Errorf("weight-reuse laser %g should exceed original %g", pjWR, pj)
	}
}

func TestLinkBudgetComposition(t *testing.T) {
	c := Default(Conservative)
	db := LinkBudget(c)
	// Fixed losses (6.5 dB) plus the 9-way split (~9.5 dB).
	want := 6.5 + 10*math.Log10(9)
	if math.Abs(db-want) > 1e-9 {
		t.Errorf("budget = %.2f dB, want %.2f", db, want)
	}
	c.WeightReuse = true
	if LinkBudget(c) <= db {
		t.Error("weight-reuse budget should add loss")
	}
}
