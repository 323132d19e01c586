package components

import (
	"fmt"
	"math"
)

// DigitalMACSpec parameterizes a conventional digital multiply-accumulate
// unit, used for electrical-baseline comparisons. Energy scales roughly
// quadratically with operand width (multiplier array dominated).
type DigitalMACSpec struct {
	Name string
	// Bits is the operand precision.
	Bits int `param:"bits,required"`
	// PJAt8Bit is the per-MAC energy at 8-bit operands.
	PJAt8Bit float64 `param:"pj_at_8bit"`
	// UM2At8Bit is the area at 8-bit operands.
	UM2At8Bit float64 `param:"um2_at_8bit"`
}

// NewDigitalMAC builds a digital MAC component.
func NewDigitalMAC(s DigitalMACSpec) (Component, error) {
	if s.Bits <= 0 || s.Bits > 64 {
		return nil, fmt.Errorf("components: digital mac %s: bits = %d, want 1..64", s.Name, s.Bits)
	}
	if s.PJAt8Bit <= 0 {
		s.PJAt8Bit = 0.25
	}
	if s.UM2At8Bit <= 0 {
		s.UM2At8Bit = 350
	}
	scale := math.Pow(float64(s.Bits)/8, 2)
	return NewBase(s.Name, "digital_mac", map[string]float64{
		ActionMAC: s.PJAt8Bit * scale,
	}, s.UM2At8Bit*scale, 0), nil
}

// WireSpec parameterizes on-chip electrical interconnect: a per-bit-per-mm
// switching energy times a routed length, with one "transfer" moving one
// word.
type WireSpec struct {
	Name string
	// WordBits is the transfer width.
	WordBits int `param:"word_bits,required"`
	// LengthMM is the routed distance.
	LengthMM float64 `param:"length_mm"`
	// PJPerBitMM is the wire energy coefficient (~0.05-0.2 pJ/bit/mm).
	PJPerBitMM float64 `param:"pj_per_bit_mm"`
}

// NewWire builds an electrical interconnect component.
func NewWire(s WireSpec) (Component, error) {
	if s.WordBits <= 0 {
		return nil, fmt.Errorf("components: wire %s: word bits must be positive", s.Name)
	}
	if s.LengthMM < 0 {
		return nil, fmt.Errorf("components: wire %s: negative length", s.Name)
	}
	if s.PJPerBitMM <= 0 {
		s.PJPerBitMM = 0.08
	}
	return NewBase(s.Name, "wire", map[string]float64{
		ActionTransfer: s.PJPerBitMM * float64(s.WordBits) * s.LengthMM,
	}, 0, 0), nil
}
