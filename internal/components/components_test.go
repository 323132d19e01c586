package components

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))+1e-12
}

// energyOf returns c's energy for action, failing the test if c does not
// support it.
func energyOf(t *testing.T, c Component, action string) float64 {
	t.Helper()
	e, err := c.Energy(action)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestDBHelpers(t *testing.T) {
	if got := DBToLinear(0); got != 1 {
		t.Errorf("DBToLinear(0) = %g", got)
	}
	if got := DBToLinear(10); !almostEqual(got, 10, 1e-9) {
		t.Errorf("DBToLinear(10) = %g", got)
	}
	if got := LinearToDB(100); !almostEqual(got, 20, 1e-9) {
		t.Errorf("LinearToDB(100) = %g", got)
	}
	if got := SplitLossDB(1); got != 0 {
		t.Errorf("SplitLossDB(1) = %g", got)
	}
	if got := SplitLossDB(8); !almostEqual(got, 9.0309, 1e-3) {
		t.Errorf("SplitLossDB(8) = %g, want ~9.03", got)
	}
	if got := MilliwattsToPicojoules(2, 3); got != 6 {
		t.Errorf("mW*ns = %g, want 6", got)
	}
}

func TestDBRoundTripProperty(t *testing.T) {
	f := func(x float64) bool {
		db := math.Mod(math.Abs(x), 60) // 0..60 dB
		return almostEqual(LinearToDB(DBToLinear(db)), db, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSRAMEnergyScalesWithCapacityAndWidth(t *testing.T) {
	small, err := NewSRAM(SRAMSpec{Name: "s", CapacityBits: 64 * 1024 * 8, AccessBits: 64})
	if err != nil {
		t.Fatal(err)
	}
	big, err := NewSRAM(SRAMSpec{Name: "b", CapacityBits: 4 * 1024 * 1024 * 8, AccessBits: 64})
	if err != nil {
		t.Fatal(err)
	}
	if energyOf(t, big, ActionRead) <= energyOf(t, small, ActionRead) {
		t.Errorf("bigger SRAM should cost more per access: %g vs %g",
			energyOf(t, big, ActionRead), energyOf(t, small, ActionRead))
	}
	wide, err := NewSRAM(SRAMSpec{Name: "w", CapacityBits: 64 * 1024 * 8, AccessBits: 256})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(energyOf(t, wide, ActionRead), 4*energyOf(t, small, ActionRead), 1e-9) {
		t.Errorf("4x wider access should cost 4x: %g vs %g",
			energyOf(t, wide, ActionRead), energyOf(t, small, ActionRead))
	}
	if energyOf(t, small, ActionWrite) <= energyOf(t, small, ActionRead) {
		t.Error("writes should cost more than reads")
	}
	if energyOf(t, small, ActionUpdate) != energyOf(t, small, ActionRead)+energyOf(t, small, ActionWrite) {
		t.Error("update = read + write")
	}
	if big.Area() <= small.Area() {
		t.Error("bigger SRAM should be bigger")
	}
}

func TestSRAMBankingReducesEnergy(t *testing.T) {
	mono, _ := NewSRAM(SRAMSpec{Name: "m", CapacityBits: 1 << 23, AccessBits: 64})
	banked, _ := NewSRAM(SRAMSpec{Name: "b", CapacityBits: 1 << 23, AccessBits: 64, Banks: 8})
	if energyOf(t, banked, ActionRead) >= energyOf(t, mono, ActionRead) {
		t.Error("banking should reduce per-access energy")
	}
	if banked.Area() <= mono.Area() {
		t.Error("banking should add area overhead")
	}
}

func TestSRAMRejectsBadSpecs(t *testing.T) {
	if _, err := NewSRAM(SRAMSpec{Name: "x", CapacityBits: 0, AccessBits: 64}); err == nil {
		t.Error("accepted zero capacity")
	}
	if _, err := NewSRAM(SRAMSpec{Name: "x", CapacityBits: 1024, AccessBits: 0}); err == nil {
		t.Error("accepted zero width")
	}
}

func TestDRAM(t *testing.T) {
	d, err := NewDRAM(DRAMSpec{Name: "dram", PJPerBit: 8, AccessBits: 16})
	if err != nil {
		t.Fatal(err)
	}
	// Per-word energies: 8 pJ/bit x 16-bit access.
	if energyOf(t, d, ActionRead) != 128 {
		t.Errorf("read = %g, want 128", energyOf(t, d, ActionRead))
	}
	if energyOf(t, d, ActionUpdate) != 256 {
		t.Errorf("update = %g, want 256", energyOf(t, d, ActionUpdate))
	}
	if d.Area() != 0 {
		t.Error("off-chip DRAM should not charge on-die area")
	}
	if _, err := NewDRAM(DRAMSpec{Name: "bad", AccessBits: 8}); err == nil {
		t.Error("accepted zero energy")
	}
	if _, err := NewDRAM(DRAMSpec{Name: "bad", PJPerBit: 8}); err == nil {
		t.Error("accepted zero access width")
	}
}

func TestADCWaldenScaling(t *testing.T) {
	a8, err := NewADC(ADCSpec{Name: "a8", Bits: 8, WaldenFJPerStep: 50})
	if err != nil {
		t.Fatal(err)
	}
	// 50 fJ/step * 256 steps = 12.8 pJ.
	if got := energyOf(t, a8, ActionConvert); !almostEqual(got, 12.8, 1e-9) {
		t.Errorf("8-bit ADC = %g pJ, want 12.8", got)
	}
	a10, _ := NewADC(ADCSpec{Name: "a10", Bits: 10, WaldenFJPerStep: 50})
	if !almostEqual(energyOf(t, a10, ActionConvert), 4*energyOf(t, a8, ActionConvert), 1e-9) {
		t.Error("each extra ADC bit should double energy")
	}
	if _, err := NewADC(ADCSpec{Name: "bad", Bits: 0, WaldenFJPerStep: 50}); err == nil {
		t.Error("accepted 0-bit ADC")
	}
	if _, err := NewADC(ADCSpec{Name: "bad", Bits: 8}); err == nil {
		t.Error("accepted zero FOM")
	}
}

func TestDACLinearScaling(t *testing.T) {
	d8, err := NewDAC(DACSpec{Name: "d8", Bits: 8, PJPerBit: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if got := energyOf(t, d8, ActionConvert); !almostEqual(got, 0.4, 1e-9) {
		t.Errorf("8-bit DAC = %g pJ, want 0.4", got)
	}
	// DAC should be much cheaper than a same-resolution ADC.
	a8, _ := NewADC(ADCSpec{Name: "a8", Bits: 8, WaldenFJPerStep: 50})
	if energyOf(t, d8, ActionConvert) >= energyOf(t, a8, ActionConvert) {
		t.Error("DAC should be cheaper than ADC at the same resolution")
	}
}

func TestMZMAndMRR(t *testing.T) {
	mzm, err := NewMZM(MZMSpec{Name: "mzm", ModulatePJ: 1.2, BiasMW: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if energyOf(t, mzm, ActionModulate) != 1.2 {
		t.Error("MZM modulate energy wrong")
	}
	if mzm.StaticPower() != 0.5 {
		t.Error("MZM bias power wrong")
	}
	if _, err := mzm.Energy(ActionRead); err == nil {
		t.Error("MZM should not support read")
	}

	mrr, err := NewMRR(MRRSpec{Name: "mrr", ProgramPJ: 2.5, TransitPJ: 0.01, HeaterMW: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if energyOf(t, mrr, ActionProgram) != 2.5 || energyOf(t, mrr, ActionTransit) != 0.01 {
		t.Error("MRR energies wrong")
	}
	if _, err := NewMRR(MRRSpec{Name: "bad"}); err == nil {
		t.Error("accepted zero program energy")
	}
}

func TestLaserLinkBudget(t *testing.T) {
	// 0 dB loss, 100% WPE, 1 mW sensitivity, 1 ns symbol, 1 MAC/symbol
	// => exactly 1 pJ/MAC.
	l, err := NewLaser(LaserSpec{
		Name: "l", WallPlugEfficiency: 1, PathLossDB: 0,
		DetectorSensitivityMW: 1, SymbolNS: 1, MACsPerWavelengthSymbol: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := energyOf(t, l, ActionSupply); !almostEqual(got, 1, 1e-9) {
		t.Errorf("laser supply = %g pJ/MAC, want 1", got)
	}
	// 10 dB loss at 20% WPE => 50x the energy.
	l2, _ := NewLaser(LaserSpec{
		Name: "l2", WallPlugEfficiency: 0.2, PathLossDB: 10,
		DetectorSensitivityMW: 1, SymbolNS: 1, MACsPerWavelengthSymbol: 1,
	})
	if got := energyOf(t, l2, ActionSupply); !almostEqual(got, 50, 1e-9) {
		t.Errorf("laser supply = %g pJ/MAC, want 50", got)
	}
	// Fanning one wavelength across 9 MACs divides per-MAC energy by 9.
	l3, _ := NewLaser(LaserSpec{
		Name: "l3", WallPlugEfficiency: 0.2, PathLossDB: 10,
		DetectorSensitivityMW: 1, SymbolNS: 1, MACsPerWavelengthSymbol: 9,
	})
	if got := energyOf(t, l3, ActionSupply); !almostEqual(got, 50.0/9, 1e-9) {
		t.Errorf("laser supply = %g pJ/MAC, want %g", got, 50.0/9)
	}
	if _, err := NewLaser(LaserSpec{Name: "bad", WallPlugEfficiency: 1.5}); err == nil {
		t.Error("accepted WPE > 1")
	}
}

func TestStarCouplerAndWaveguide(t *testing.T) {
	c, err := NewStarCoupler(StarCouplerSpec{Name: "sc", Ports: 8})
	if err != nil {
		t.Fatal(err)
	}
	if energyOf(t, c, ActionTransit) != 0 {
		t.Error("star coupler transit should be free")
	}
	w, err := NewWaveguide(WaveguideSpec{Name: "wg", LengthMM: 5})
	if err != nil {
		t.Fatal(err)
	}
	if w.Area() <= 0 {
		t.Error("waveguide should occupy area")
	}
}

func TestDigitalMACQuadraticScaling(t *testing.T) {
	m8, err := NewDigitalMAC(DigitalMACSpec{Name: "m8", Bits: 8, PJAt8Bit: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	m16, _ := NewDigitalMAC(DigitalMACSpec{Name: "m16", Bits: 16, PJAt8Bit: 0.25})
	if !almostEqual(energyOf(t, m16, ActionMAC), 4*energyOf(t, m8, ActionMAC), 1e-9) {
		t.Error("16-bit MAC should cost 4x an 8-bit MAC")
	}
}

func TestWireEnergy(t *testing.T) {
	w, err := NewWire(WireSpec{Name: "w", WordBits: 16, LengthMM: 2, PJPerBitMM: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if got := energyOf(t, w, ActionTransfer); !almostEqual(got, 3.2, 1e-9) {
		t.Errorf("wire transfer = %g, want 3.2", got)
	}
}

func TestRegistryBuildsEveryClass(t *testing.T) {
	cases := []struct {
		class  string
		params Params
	}{
		{"sram", Params{"capacity_bits": 1 << 20, "access_bits": 64}},
		{"regfile", Params{"access_bits": 16}},
		{"dram", Params{"pj_per_bit": 8}},
		{"adc", Params{"bits": 8, "walden_fj_per_step": 50}},
		{"dac", Params{"bits": 8, "pj_per_bit": 0.05}},
		{"mzm", Params{"modulate_pj": 1}},
		{"mrr", Params{"program_pj": 2}},
		{"photodiode", Params{"detect_pj": 0.5}},
		{"laser", Params{"per_mac_pj": 0.3}},
		{"laser", Params{"wall_plug_efficiency": 0.2, "path_loss_db": 12, "detector_sensitivity_mw": 0.1, "symbol_ns": 0.2, "macs_per_wavelength_symbol": 9}},
		{"star_coupler", Params{"ports": 8}},
		{"waveguide", Params{"length_mm": 3}},
		{"digital_mac", Params{"bits": 8}},
		{"wire", Params{"word_bits": 16}},
	}
	for _, c := range cases {
		comp, err := Build(c.class, "x-"+c.class, c.params)
		if err != nil {
			t.Errorf("Build(%s): %v", c.class, err)
			continue
		}
		if comp.Class() != c.class {
			t.Errorf("Build(%s).Class() = %s", c.class, comp.Class())
		}
		if len(comp.Actions()) == 0 {
			t.Errorf("Build(%s) has no actions", c.class)
		}
	}
	// An unknown class, a missing required parameter and a name the class
	// does not declare are refused.
	for _, c := range []struct {
		class string
		p     Params
		want  string
	}{
		{"flux_capacitor", nil, `components: unknown class "flux_capacitor"`},
		{"adc", Params{"bits": 8}, `components: adc x: missing required parameter "walden_fj_per_step"`},
		{"dram", Params{"pj_per_bit": 8, "pj_per_bt": 8}, `components: dram x: unknown parameter "pj_per_bt" (dram takes pj_per_bit, access_bits, static_mw)`},
		{"laser", Params{"per_mac_pj": 0.5, "wall_plug_efficiency": 0.2}, `components: laser x: unknown parameter "wall_plug_efficiency" (laser takes per_mac_pj, static_mw)`},
		{"laser", Params{"wall_plug_efficiency": 0.2, "static_mw": 1}, `components: laser x: unknown parameter "static_mw" (laser takes wall_plug_efficiency, path_loss_db, detector_sensitivity_mw, symbol_ns, macs_per_wavelength_symbol)`},
		{"star_coupler", Params{"ports": 8, "excess_loss_db": 0.5}, `components: star_coupler x: unknown parameter "excess_loss_db" (star_coupler takes ports)`},
		{"waveguide", Params{"length_mm": 3, "loss_db_per_mm": 0.2}, `components: waveguide x: unknown parameter "loss_db_per_mm" (waveguide takes length_mm)`},
	} {
		if _, err := Build(c.class, "x", c.p); err == nil || err.Error() != c.want {
			t.Errorf("Build(%s, %v) = %v, want %s", c.class, c.p, err, c.want)
		}
	}
}

func TestClassesSortedAndComplete(t *testing.T) {
	classes := Classes()
	for i := 1; i < len(classes); i++ {
		if classes[i-1] >= classes[i] {
			t.Fatalf("Classes() not sorted: %v", classes)
		}
	}
	for _, want := range []string{"sram", "dram", "adc", "dac", "mzm", "mrr", "photodiode", "laser", "star_coupler", "waveguide", "digital_mac", "wire", "regfile"} {
		found := false
		for _, c := range classes {
			if c == want {
				found = true
			}
		}
		if !found {
			t.Errorf("class %q not registered", want)
		}
	}
}

func TestLibrary(t *testing.T) {
	lib := NewLibrary()
	c, _ := Build("dram", "DRAM", Params{"pj_per_bit": 8})
	if err := lib.Add(c); err != nil {
		t.Fatal(err)
	}
	if err := lib.Add(c); err == nil {
		t.Error("library accepted duplicate")
	}
	if err := lib.Add(nil); err == nil {
		t.Error("library accepted nil")
	}
	got, err := lib.Get("DRAM")
	if err != nil || got != c {
		t.Errorf("Get(DRAM) = %v, %v", got, err)
	}
	if _, err := lib.Get("nope"); err == nil {
		t.Error("Get(nope) succeeded")
	}
	if len(lib.Names()) != 1 {
		t.Error("Names wrong")
	}
}

func TestUnsupportedActionErrorsAreDescriptive(t *testing.T) {
	c, _ := Build("photodiode", "PD", Params{"detect_pj": 0.5})
	_, err := c.Energy("mac")
	if err == nil || !strings.Contains(err.Error(), "PD") {
		t.Errorf("error should name the component: %v", err)
	}
}
