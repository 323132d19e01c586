package fidelity_test

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"testing"

	"photoloop/internal/albireo"
	"photoloop/internal/fidelity"
	"photoloop/internal/presets"
)

// refParams is the hand-derivable Albireo-default parameter set the golden
// file pins; the property tests perturb one knob at a time around it.
func refParams() fidelity.Params {
	return fidelity.Params{
		DACBits:           []int{8, 8},
		ADCBits:           8,
		ReceivedPowerMW:   0.05,
		BandwidthGHz:      5,
		TemperatureK:      300,
		ResponsivityAPerW: 1,
		LoadOhms:          10e3,
		ReferenceBits:     8,
	}
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

// TestSNRMonotoneInLaserPower pins the core physics property: more
// received optical power means less shot and thermal noise relative to
// signal, so SNR (and effective bits) must strictly increase with power,
// saturating only at the converter-limited ceiling.
func TestSNRMonotoneInLaserPower(t *testing.T) {
	for _, merged := range []int{1, 3, 9, 27} {
		p := refParams()
		prev := math.Inf(-1)
		for _, mw := range []float64{1e-4, 1e-3, 1e-2, 1e-1, 1, 10, 100} {
			p.ReceivedPowerMW = mw
			r := p.Rollup(merged)
			if r.SNRDB <= prev {
				t.Fatalf("M=%d: SNR not strictly increasing in power: %.6f dB at %g mW after %.6f dB", merged, r.SNRDB, mw, prev)
			}
			if ceiling := fidelity.RefSNRDB(p.ADCBits); r.SNRDB >= ceiling {
				t.Fatalf("M=%d at %g mW: SNR %.4f dB at or above the %d-bit converter ceiling %.4f dB", merged, mw, r.SNRDB, p.ADCBits, ceiling)
			}
			prev = r.SNRDB
		}
	}
}

// TestEffectiveBitsMonotoneInADCResolution: a finer readout converter can
// only help, so effective bits strictly increase with ADC resolution until
// the photodetector noise floor dominates.
func TestEffectiveBitsMonotoneInADCResolution(t *testing.T) {
	p := refParams()
	// Generous optical power keeps quantization the dominant noise source,
	// so each extra ADC bit visibly moves the total. M=1 keeps the whole
	// sweep above the zero-bits clamp (at M=9 a 2-bit ADC's inflated full
	// scale drives effective bits to the floor).
	p.ReceivedPowerMW = 10
	prev := math.Inf(-1)
	for bits := 2; bits <= 16; bits++ {
		p.ADCBits = bits
		r := p.Rollup(1)
		if r.EffectiveBits <= prev {
			t.Fatalf("effective bits not strictly increasing in ADC resolution: %.6f at %d bits after %.6f", r.EffectiveBits, bits, prev)
		}
		prev = r.EffectiveBits
	}
}

// TestEffectiveBitsMonotoneInMerging: merging more analog partials into one
// converted sample widens the ADC full scale and accumulates shot noise, so
// effective precision must strictly decrease with the merge factor — the
// energy/precision trade the explore objective navigates.
func TestEffectiveBitsMonotoneInMerging(t *testing.T) {
	p := refParams()
	prev := math.Inf(1)
	for _, merged := range []int{1, 3, 9, 27, 81} {
		r := p.Rollup(merged)
		if r.EffectiveBits >= prev {
			t.Fatalf("effective bits not strictly decreasing in merge factor: %.6f at M=%d after %.6f", r.EffectiveBits, merged, prev)
		}
		prev = r.EffectiveBits
	}
}

// TestAccuracyLossBounds: the degradation proxy is a percentage — never
// negative, never above 100, and zero whenever the chain meets the
// reference precision.
func TestAccuracyLossBounds(t *testing.T) {
	p := refParams()
	for _, mw := range []float64{0.001, 0.05, 1, 100} {
		for _, adc := range []int{2, 4, 8, 12, 16} {
			for _, merged := range []int{1, 9, 81} {
				p.ReceivedPowerMW = mw
				p.ADCBits = adc
				r := p.Rollup(merged)
				if r.AccuracyLossPct < 0 || r.AccuracyLossPct > 100 {
					t.Fatalf("mw=%g adc=%d M=%d: accuracy loss %.4f%% outside [0, 100]", mw, adc, merged, r.AccuracyLossPct)
				}
				if r.EffectiveBits >= float64(p.ReferenceBits) && r.AccuracyLossPct != 0 {
					t.Fatalf("mw=%g adc=%d M=%d: %.4f effective bits >= %d reference bits but loss %.4f%% != 0",
						mw, adc, merged, r.EffectiveBits, p.ReferenceBits, r.AccuracyLossPct)
				}
			}
		}
	}
}

// TestNoiselessLimitExact: with every noise source off the chain reports
// exactly the reference precision and exactly zero degradation — the
// constants are exact (10*log10 forms), not the rounded 6.02/1.76, so these
// comparisons are equalities, not tolerances.
func TestNoiselessLimitExact(t *testing.T) {
	p := refParams()
	p.Noiseless = true
	r := p.Rollup(9)
	if r.EffectiveBits != 8 {
		t.Fatalf("noiseless effective bits = %v, want exactly 8", r.EffectiveBits)
	}
	if r.AccuracyLossPct != 0 {
		t.Fatalf("noiseless accuracy loss = %v, want exactly 0", r.AccuracyLossPct)
	}
	if r.SNRDB != fidelity.RefSNRDB(8) {
		t.Fatalf("noiseless SNR = %v dB, want exactly RefSNRDB(8) = %v", r.SNRDB, fidelity.RefSNRDB(8))
	}
}

// TestDigitalArchPerfect: an architecture with no analog conversion chain
// (the electrical baseline preset) compiles to a perfect digital chain that
// reports exactly the reference precision for any mapping.
func TestDigitalArchPerfect(t *testing.T) {
	p, err := presets.ByName("electrical-baseline")
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	c, err := fidelity.Compile(a, &fidelity.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	ref := c.Params.ReferenceBits
	if ref <= 0 {
		t.Fatalf("reference bits = %d, want the architecture word size", ref)
	}
	r := c.Evaluate(nil)
	if r.EffectiveBits != float64(ref) || r.AccuracyLossPct != 0 {
		t.Fatalf("digital chain reported %.4f effective bits, %.4f%% loss; want exactly %d bits, 0%%", r.EffectiveBits, r.AccuracyLossPct, ref)
	}
}

// golden mirrors testdata/golden.json: the parameter set Compile must
// extract from the stock Albireo link budget, and hand-computed rollups at
// the canonical merge factor (the 3x3 photodetector window) and at M=1.
type golden struct {
	Params struct {
		DACBits           []int   `json:"dac_bits"`
		ADCBits           int     `json:"adc_bits"`
		ReceivedPowerMW   float64 `json:"received_power_mw"`
		BandwidthGHz      float64 `json:"bandwidth_ghz"`
		TemperatureK      float64 `json:"temperature_k"`
		ResponsivityAPerW float64 `json:"responsivity_a_per_w"`
		LoadOhms          float64 `json:"load_ohms"`
		ReferenceBits     int     `json:"reference_bits"`
	} `json:"params"`
	Reports []fidelity.Report `json:"reports"`
}

// TestGoldenAlbireoLinkBudget pins the whole pipeline against numbers
// computed by hand from the Albireo link budget (see the derivation notes
// inside the testdata file): Compile must recover the committed parameter
// set from the component tables alone, and Rollup must reproduce each NSR
// term to float precision and the log-derived metrics to 0.1%.
func TestGoldenAlbireoLinkBudget(t *testing.T) {
	raw, err := os.ReadFile("testdata/golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var g golden
	if err := json.Unmarshal(raw, &g); err != nil {
		t.Fatal(err)
	}

	cfg := albireo.Default(albireo.Conservative)
	a, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	c, err := fidelity.Compile(a, &fidelity.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	p := c.Params
	if len(p.DACBits) != len(g.Params.DACBits) {
		t.Fatalf("compiled %d DAC stages, want %d", len(p.DACBits), len(g.Params.DACBits))
	}
	for i, b := range g.Params.DACBits {
		if p.DACBits[i] != b {
			t.Fatalf("DAC stage %d: %d bits, want %d", i, p.DACBits[i], b)
		}
	}
	if p.ADCBits != g.Params.ADCBits {
		t.Fatalf("ADC bits = %d, want %d", p.ADCBits, g.Params.ADCBits)
	}
	if p.ReceivedPowerMW != g.Params.ReceivedPowerMW {
		t.Fatalf("received power = %v mW, want %v (the link-budget detector sensitivity)", p.ReceivedPowerMW, g.Params.ReceivedPowerMW)
	}
	if p.BandwidthGHz != g.Params.BandwidthGHz {
		t.Fatalf("bandwidth = %v GHz, want %v (the architecture clock)", p.BandwidthGHz, g.Params.BandwidthGHz)
	}
	if p.TemperatureK != g.Params.TemperatureK || p.ResponsivityAPerW != g.Params.ResponsivityAPerW || p.LoadOhms != g.Params.LoadOhms {
		t.Fatalf("physical defaults %+v, want T=%v R=%v RL=%v", p, g.Params.TemperatureK, g.Params.ResponsivityAPerW, g.Params.LoadOhms)
	}
	if p.ReferenceBits != g.Params.ReferenceBits {
		t.Fatalf("reference bits = %d, want %d (the architecture word size)", p.ReferenceBits, g.Params.ReferenceBits)
	}

	// The canonical Albireo mapping merges the full 3x3 photodetector
	// window: the chain must read M=9 straight off the machine shape.
	if m := c.MergedPartials(nil); m != 9 {
		t.Fatalf("canonical merged partials = %d, want 9 (the 3x3 PD window)", m)
	}

	for _, want := range g.Reports {
		got := p.Rollup(want.MergedPartials)
		if got.MergedPartials != want.MergedPartials {
			t.Fatalf("M=%d: echoed merge factor %d", want.MergedPartials, got.MergedPartials)
		}
		for _, f := range []struct {
			name      string
			got, want float64
			tol       float64
		}{
			// NSR terms are exact closed forms — pinned to float precision.
			{"nsr_dac", got.NSRDAC, want.NSRDAC, 1e-9},
			{"nsr_shot", got.NSRShot, want.NSRShot, 1e-9},
			{"nsr_thermal", got.NSRThermal, want.NSRThermal, 1e-9},
			{"nsr_adc", got.NSRADC, want.NSRADC, 1e-9},
			{"nsr_total", got.NSRTotal, want.NSRTotal, 1e-9},
			// Log-derived metrics were hand-computed at 6 digits.
			{"snr_db", got.SNRDB, want.SNRDB, 1e-3},
			{"effective_bits", got.EffectiveBits, want.EffectiveBits, 1e-3},
			{"accuracy_loss_pct", got.AccuracyLossPct, want.AccuracyLossPct, 1e-3},
		} {
			if relDiff(f.got, f.want) > f.tol {
				t.Errorf("M=%d: %s = %.12g, want %.12g (rel diff %.2e > %.0e)",
					want.MergedPartials, f.name, f.got, f.want, relDiff(f.got, f.want), f.tol)
			}
		}
	}
}

// TestMonteCarloCrossCheck validates the closed-form NSR rollup against a
// sampled noise simulation, refsim-style: draw per-source noise samples
// with the modeled variances (uniform quantization error per converter
// stage, Gaussian shot+thermal current noise), and require the empirical
// noise power to match NSRTotal. Independence of the sources is exactly
// what "NSRs add" assumes, so agreement here checks the rollup identity,
// not just the arithmetic.
func TestMonteCarloCrossCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	uniform := func(variance float64) float64 {
		// A uniform on [-w/2, w/2] has variance w^2/12.
		w := math.Sqrt(12 * variance)
		return (rng.Float64() - 0.5) * w
	}
	p := refParams()
	for _, merged := range []int{1, 9} {
		want := p.Rollup(merged)
		gaussStd := math.Sqrt(want.NSRShot + want.NSRThermal)
		perDAC := want.NSRDAC / float64(len(p.DACBits))
		const n = 200_000
		var sumSq float64
		for i := 0; i < n; i++ {
			var noise float64
			for range p.DACBits {
				noise += uniform(perDAC)
			}
			noise += rng.NormFloat64() * gaussStd
			noise += uniform(want.NSRADC)
			sumSq += noise * noise
		}
		got := sumSq / n
		if relDiff(got, want.NSRTotal) > 0.02 {
			t.Fatalf("M=%d: sampled noise power %.6g vs closed-form NSR %.6g (rel diff %.3f > 2%%)",
				merged, got, want.NSRTotal, relDiff(got, want.NSRTotal))
		}
	}
}
