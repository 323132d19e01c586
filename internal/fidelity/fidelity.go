// Package fidelity is the analog error model: it derives a per-mapping
// signal-to-noise ratio for the analog signal chain of an architecture
// (shot and thermal noise at the photodetector, quantization noise of the
// DAC and ADC conversion stages) and rolls it up into an effective-bits /
// estimated-accuracy-degradation metric.
//
// The model follows the standard photonic-NN formulations (the photonic
// neural-network fundamentals survey, arXiv:2312.00037) and the noise
// taxonomy AnalogVNN applies to optoelectronic networks (arXiv:2210.10048):
// every noise source is expressed as a noise-to-signal power ratio (NSR)
// relative to a full-scale signal, independent sources add, and the total
// converts to an effective number of bits through the standard quantizer
// identity SNR = 1.5 * 4^bits (the "6.02 b + 1.76 dB" rule with exact
// constants).
//
// The rollup is mapping dependent through one integer: the number of
// analog partial products merged into a single detected/converted sample
// (Albireo's OR lever times the 3x3 photodetector window). More merging
// amortizes converter energy — the paper's Fig. 5 lever — but widens the
// ADC's full scale, trading energy against effective precision. Compile
// extracts everything else (converter resolutions, received optical power,
// bandwidth) from the architecture itself, so the same component tables
// that ground the energy model ground the noise model.
//
// Everything here is a closed-form post-pass over a finished mapping: the
// compiled evaluator hot path never sees it, and results with the model
// disabled are bit-identical to results from builds without it.
package fidelity

import (
	"fmt"
	"math"

	"photoloop/internal/arch"
	"photoloop/internal/components"
	"photoloop/internal/mapping"
	"photoloop/internal/workload"
)

// Physical constants (SI units).
const (
	// ElectronCharge is the elementary charge in coulombs.
	ElectronCharge = 1.602176634e-19
	// Boltzmann is the Boltzmann constant in joules per kelvin.
	Boltzmann = 1.380649e-23
)

// Default physical parameters, used for every Spec field left zero.
const (
	// DefaultTemperatureK is the receiver temperature for thermal noise.
	DefaultTemperatureK = 300.0
	// DefaultResponsivityAPerW is the photodiode responsivity (A/W); near
	// 1 A/W for germanium detectors in the C band.
	DefaultResponsivityAPerW = 1.0
	// DefaultLoadOhms is the transimpedance-amplifier feedback resistance
	// the thermal (Johnson) noise current is referred to.
	DefaultLoadOhms = 10e3
	// DefaultReceivedPowerMW is the received optical power per wavelength
	// when neither the spec, the laser link budget, nor the photodiode
	// sensitivity provides one. It equals the detector sensitivity floor
	// the Albireo link budget designs to.
	DefaultReceivedPowerMW = 0.05
)

// Spec configures the analog error model. The zero value asks for pure
// architecture-derived defaults: converter resolutions and received power
// from the component tables, bandwidth from the clock, reference precision
// from the architecture word size. All fields are optional overrides.
type Spec struct {
	// TemperatureK overrides the receiver temperature in kelvin.
	TemperatureK float64 `json:"temperature_k,omitempty"`
	// ResponsivityAPerW overrides the photodiode responsivity in A/W.
	ResponsivityAPerW float64 `json:"responsivity_a_per_w,omitempty"`
	// LoadOhms overrides the TIA feedback resistance in ohms.
	LoadOhms float64 `json:"load_ohms,omitempty"`
	// ReceivedPowerMW overrides the received optical power per wavelength
	// in milliwatts (the laser-power lever of the SNR property tests).
	ReceivedPowerMW float64 `json:"received_power_mw,omitempty"`
	// BandwidthGHz overrides the receiver noise bandwidth in GHz (default:
	// the architecture clock — one sample per symbol).
	BandwidthGHz float64 `json:"bandwidth_ghz,omitempty"`
	// ReferenceBits overrides the precision the degradation metric is
	// measured against (default: the architecture word size).
	ReferenceBits int `json:"reference_bits,omitempty"`
	// Noiseless turns every noise source off: the chain reports exactly
	// the reference precision and zero degradation. The noiseless limit of
	// the property-test suite, and a cheap way to A/B the metric itself.
	Noiseless bool `json:"noiseless,omitempty"`
}

// Validate rejects physically meaningless parameters (negative, NaN or
// infinite values; out-of-range reference precision).
func (s *Spec) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"temperature_k", s.TemperatureK},
		{"responsivity_a_per_w", s.ResponsivityAPerW},
		{"load_ohms", s.LoadOhms},
		{"received_power_mw", s.ReceivedPowerMW},
		{"bandwidth_ghz", s.BandwidthGHz},
	} {
		if f.v < 0 || math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("fidelity: %s = %v, want a finite non-negative value", f.name, f.v)
		}
	}
	if s.ReferenceBits < 0 || s.ReferenceBits > 64 {
		return fmt.Errorf("fidelity: reference_bits = %d, want 0..64", s.ReferenceBits)
	}
	return nil
}

// Params is the fully resolved physical parameter set of one architecture's
// analog signal chain — what Compile extracts, and the direct input of the
// property-test and Monte-Carlo suites.
type Params struct {
	// DACBits holds the resolution of every digital-to-analog conversion
	// stage on the signal path (Albireo: the input DAC and the weight DAC).
	DACBits []int
	// ADCBits is the readout converter resolution.
	ADCBits int
	// ReceivedPowerMW is the optical power arriving at the photodetector
	// per wavelength, in milliwatts.
	ReceivedPowerMW float64
	// BandwidthGHz is the receiver noise bandwidth in GHz.
	BandwidthGHz float64
	// TemperatureK is the receiver temperature in kelvin.
	TemperatureK float64
	// ResponsivityAPerW is the photodiode responsivity in A/W.
	ResponsivityAPerW float64
	// LoadOhms is the TIA feedback resistance in ohms.
	LoadOhms float64
	// ReferenceBits is the precision degradation is measured against.
	ReferenceBits int
	// Noiseless disables every noise source.
	Noiseless bool
}

// Report is the rolled-up fidelity of one configuration at one merge
// factor. All NSR fields are noise-to-signal power ratios against the
// full-scale signal of one merged sample.
type Report struct {
	// MergedPartials is the number of analog partial products summed into
	// one converted sample (the mapping-dependent input of the rollup).
	MergedPartials int `json:"merged_partials"`
	// NSRDAC is the summed quantization noise of the DAC stages.
	NSRDAC float64 `json:"nsr_dac"`
	// NSRShot is the photodetector shot-noise contribution.
	NSRShot float64 `json:"nsr_shot"`
	// NSRThermal is the receiver thermal (Johnson) noise contribution.
	NSRThermal float64 `json:"nsr_thermal"`
	// NSRADC is the readout quantization noise, inflated by the merged
	// full scale.
	NSRADC float64 `json:"nsr_adc"`
	// NSRTotal is the sum of all contributions (independent sources add).
	NSRTotal float64 `json:"nsr_total"`
	// SNRDB is 10*log10(1/NSRTotal).
	SNRDB float64 `json:"snr_db"`
	// EffectiveBits is the equivalent ideal-quantizer resolution:
	// (SNRDB - 1.76) / 6.02 with exact constants, clamped at zero.
	EffectiveBits float64 `json:"effective_bits"`
	// AccuracyLossPct estimates the relative accuracy degradation versus a
	// ReferenceBits-precision execution as 100*(1 - 2^-(lost bits)) — a
	// documented heuristic proxy (each lost bit halves the distinguishable
	// signal levels), not a trained-network measurement.
	AccuracyLossPct float64 `json:"accuracy_loss_pct"`
}

// Exact constants of the quantizer identity SNR_dB = 6.02 b + 1.76: an
// ideal b-bit quantizer of a full-scale sine has SNR = 1.5 * 4^b.
var (
	enobOffsetDB = 10 * math.Log10(1.5) // 1.7609...
	enobScaleDB  = 10 * math.Log10(4)   // 6.0206...
)

// RefSNRDB returns the SNR of an ideal quantizer at the given resolution —
// the ceiling a noiseless chain reports.
func RefSNRDB(bits int) float64 {
	return enobOffsetDB + enobScaleDB*float64(bits)
}

// quantNSR is the quantization noise-to-signal ratio of an ideal b-bit
// converter at full scale: 1 / (1.5 * 4^b).
func quantNSR(bits int) float64 {
	return 1 / (1.5 * math.Exp2(2*float64(bits)))
}

// perfect is the noiseless (or all-digital) report: exactly the reference
// precision, zero degradation.
func perfect(refBits, merged int) Report {
	return Report{
		MergedPartials: merged,
		NSRTotal:       quantNSR(refBits),
		SNRDB:          RefSNRDB(refBits),
		EffectiveBits:  float64(refBits),
	}
}

// Rollup computes the closed-form fidelity report for this parameter set
// with the given number of merged analog partials (merged < 1 is treated
// as 1).
//
// Per-source NSR terms, each against one merged sample's full scale:
//
//   - DAC stage: 1 / (1.5 * 4^bits) per stage (ideal quantizer).
//   - Shot noise: var(I) = 2 q I M B with photocurrent I = R * P; as an
//     NSR, 2 q M B / (R P).
//   - Thermal noise: var(I) = 4 kB T B / R_L referred to I².
//   - ADC: M² / (1.5 * 4^bits) — the converter's full scale spans the sum
//     of M partials, so per-partial resolution shrinks by M.
//
// Independent sources add; SNR, effective bits and the degradation proxy
// follow from the total.
func (p Params) Rollup(merged int) Report {
	if merged < 1 {
		merged = 1
	}
	if p.Noiseless {
		return perfect(p.ReferenceBits, merged)
	}
	r := Report{MergedPartials: merged}
	for _, b := range p.DACBits {
		r.NSRDAC += quantNSR(b)
	}
	m := float64(merged)
	// Photocurrent of one full-scale partial product at the received
	// per-wavelength power — the signal reference every NSR term is
	// normalized to. The detected merged sample carries m of them, so its
	// shot variance grows with m while the reference stays per-partial.
	current := p.ResponsivityAPerW * p.ReceivedPowerMW * 1e-3
	bandwidth := p.BandwidthGHz * 1e9
	if current > 0 && bandwidth > 0 {
		shotVar := 2 * ElectronCharge * (current * m) * bandwidth
		r.NSRShot = shotVar / (current * current)
		if p.LoadOhms > 0 {
			thermVar := 4 * Boltzmann * p.TemperatureK * bandwidth / p.LoadOhms
			r.NSRThermal = thermVar / (current * current)
		}
	}
	if p.ADCBits > 0 {
		r.NSRADC = m * m * quantNSR(p.ADCBits)
	}
	r.NSRTotal = r.NSRDAC + r.NSRShot + r.NSRThermal + r.NSRADC
	if r.NSRTotal <= 0 {
		return perfect(p.ReferenceBits, merged)
	}
	r.SNRDB = -10 * math.Log10(r.NSRTotal)
	r.EffectiveBits = math.Max(0, (r.SNRDB-enobOffsetDB)/enobScaleDB)
	if lost := float64(p.ReferenceBits) - r.EffectiveBits; lost > 0 {
		r.AccuracyLossPct = 100 * (1 - math.Exp2(-lost))
	}
	return r
}

// Chain is a compiled fidelity model for one architecture: the resolved
// physical parameters plus the analog level structure that makes the
// rollup mapping dependent.
type Chain struct {
	// Params is the resolved physical parameter set.
	Params Params

	a *arch.Arch
	// analogLevels are the AE/AO level indices at or below the readout
	// converter's level: spatial reduction factors assigned there merge in
	// the analog domain before digitization.
	analogLevels []int
	// digital marks an architecture without an analog readout chain — it
	// reports the reference precision unconditionally.
	digital bool
}

// Compile resolves a spec against an architecture: converter resolutions
// from the component library (the typed components.ADC / components.DAC
// wrappers), received power from the laser link budget or the photodiode
// sensitivity floor, bandwidth from the clock. A nil spec means defaults.
// Architectures without an analog conversion chain (no ADC on any drain
// path, or no analog-domain levels) compile to a perfect digital chain.
func Compile(a *arch.Arch, s *Spec) (*Chain, error) {
	if s == nil {
		s = &Spec{}
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	c := &Chain{a: a}
	p := &c.Params
	p.Noiseless = s.Noiseless

	adcLevel := -1
	var laserMW, pdMW float64
	seenDAC := map[string]bool{}
	for i := range a.Levels {
		l := &a.Levels[i]
		for _, via := range []map[workload.Tensor][]arch.ActionRef{l.FillVia, l.UpdateVia, l.DrainVia} {
			for _, refs := range via {
				for _, ref := range refs {
					comp, err := a.Lib.Get(ref.Component)
					if err != nil {
						return nil, fmt.Errorf("fidelity: %s level %s: %w", a.Name, l.Name, err)
					}
					switch cc := comp.(type) {
					case *components.ADC:
						p.ADCBits = cc.Bits()
						adcLevel = i
					case *components.DAC:
						if !seenDAC[comp.Name()] {
							seenDAC[comp.Name()] = true
							p.DACBits = append(p.DACBits, cc.Bits())
						}
					case *components.Photodiode:
						if mw := cc.SensitivityMW(); mw > 0 {
							pdMW = mw
						}
					}
				}
			}
		}
	}
	for _, ref := range a.Compute.PerMAC {
		comp, err := a.Lib.Get(ref.Component)
		if err != nil {
			return nil, fmt.Errorf("fidelity: %s compute: %w", a.Name, err)
		}
		if laser, ok := comp.(*components.Laser); ok {
			if mw := laser.ReceivedPowerMW(); mw > 0 {
				laserMW = mw
			}
		}
	}

	if adcLevel >= 0 {
		for i := adcLevel; i < len(a.Levels); i++ {
			if d := a.Levels[i].Domain; d == arch.AE || d == arch.AO {
				c.analogLevels = append(c.analogLevels, i)
			}
		}
	}
	c.digital = adcLevel < 0 || len(c.analogLevels) == 0

	p.TemperatureK = defaultFloat(s.TemperatureK, DefaultTemperatureK)
	p.ResponsivityAPerW = defaultFloat(s.ResponsivityAPerW, DefaultResponsivityAPerW)
	p.LoadOhms = defaultFloat(s.LoadOhms, DefaultLoadOhms)
	p.BandwidthGHz = defaultFloat(s.BandwidthGHz, a.ClockGHz)
	p.ReferenceBits = s.ReferenceBits
	if p.ReferenceBits == 0 {
		p.ReferenceBits = a.DefaultWordBits
	}
	switch {
	case s.ReceivedPowerMW > 0:
		p.ReceivedPowerMW = s.ReceivedPowerMW
	case laserMW > 0:
		p.ReceivedPowerMW = laserMW
	case pdMW > 0:
		p.ReceivedPowerMW = pdMW
	default:
		p.ReceivedPowerMW = DefaultReceivedPowerMW
	}
	return c, nil
}

// defaultFloat substitutes def for an unset (zero) override.
func defaultFloat(v, def float64) float64 {
	if v > 0 {
		return v
	}
	return def
}

// MergedPartials counts the analog partial products one converted sample
// sums under a mapping: the product of spatial factors assigned to
// reduction dimensions (C, R, S) at the analog levels at or below the
// readout converter. A nil mapping yields the canonical machine shape.
func (c *Chain) MergedPartials(m *mapping.Mapping) int {
	merged := 1
	for _, i := range c.analogLevels {
		l := c.a.Level(i)
		var sp workload.Point
		if m != nil && i < len(m.Levels) {
			sp = m.Levels[i].SpatialPoint(l)
		} else {
			sp = l.CanonicalSpatial()
		}
		for _, d := range workload.ReductionDims() {
			if sp[d] > 1 {
				merged *= sp[d]
			}
		}
	}
	return merged
}

// Evaluate rolls the chain up for one mapping.
func (c *Chain) Evaluate(m *mapping.Mapping) Report {
	if c.digital {
		return perfect(c.Params.ReferenceBits, 1)
	}
	return c.Params.Rollup(c.MergedPartials(m))
}
