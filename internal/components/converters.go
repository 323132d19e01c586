package components

import (
	"fmt"
	"math"
)

// ADCSpec parameterizes an analog-to-digital converter using a Walden
// figure-of-merit model: energy per conversion = FOM * 2^bits. This is the
// AE/DE converter of the paper and, with CiM and photonics alike, a
// dominant energy term unless amortized by analog-domain reuse.
type ADCSpec struct {
	Name string
	// Bits is the conversion resolution.
	Bits int `param:"bits,required"`
	// WaldenFJPerStep is the figure of merit in femtojoules per
	// conversion step. Published ADCs span ~5-200 fJ/step depending on
	// rate and technology.
	WaldenFJPerStep float64 `param:"walden_fj_per_step,required"`
	// UM2 is the converter area.
	UM2 float64 `param:"um2"`
}

// ADC is the built analog-to-digital converter. Beyond the Component
// interface it exposes its resolution, which the analog fidelity model
// reads to derive readout quantization noise.
type ADC struct {
	*Base
	bits int
}

// Bits returns the conversion resolution.
func (a *ADC) Bits() int { return a.bits }

// NewADC builds an ADC component. Its single action is ActionConvert.
func NewADC(s ADCSpec) (Component, error) {
	if s.Bits <= 0 || s.Bits > 16 {
		return nil, fmt.Errorf("components: adc %s: bits = %d, want 1..16", s.Name, s.Bits)
	}
	if s.WaldenFJPerStep <= 0 {
		return nil, fmt.Errorf("components: adc %s: FOM must be positive", s.Name)
	}
	pj := s.WaldenFJPerStep * math.Exp2(float64(s.Bits)) / 1000
	if s.UM2 <= 0 {
		// Area grows roughly linearly with 2^bits for SAR-class ADCs.
		s.UM2 = 20 * math.Exp2(float64(s.Bits)) / 16
	}
	return &ADC{Base: NewBase(s.Name, "adc", map[string]float64{ActionConvert: pj}, s.UM2, 0), bits: s.Bits}, nil
}

// DACSpec parameterizes a digital-to-analog converter (the DE/AE converter).
// DACs are far cheaper than ADCs; energy is modeled as a per-bit switching
// cost on a capacitive ladder.
type DACSpec struct {
	Name string
	// Bits is the DAC resolution.
	Bits int `param:"bits,required"`
	// PJPerBit is the switching energy per resolved bit.
	PJPerBit float64 `param:"pj_per_bit,required"`
	// UM2 is the converter area.
	UM2 float64 `param:"um2"`
}

// DAC is the built digital-to-analog converter. Beyond the Component
// interface it exposes its resolution for the analog fidelity model.
type DAC struct {
	*Base
	bits int
}

// Bits returns the DAC resolution.
func (d *DAC) Bits() int { return d.bits }

// NewDAC builds a DAC component. Its single action is ActionConvert.
func NewDAC(s DACSpec) (Component, error) {
	if s.Bits <= 0 || s.Bits > 16 {
		return nil, fmt.Errorf("components: dac %s: bits = %d, want 1..16", s.Name, s.Bits)
	}
	if s.PJPerBit <= 0 {
		return nil, fmt.Errorf("components: dac %s: PJPerBit must be positive", s.Name)
	}
	pj := s.PJPerBit * float64(s.Bits)
	if s.UM2 <= 0 {
		s.UM2 = 6 * float64(s.Bits)
	}
	return &DAC{Base: NewBase(s.Name, "dac", map[string]float64{ActionConvert: pj}, s.UM2, 0), bits: s.Bits}, nil
}
