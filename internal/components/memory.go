package components

import (
	"fmt"
	"math"
)

// SRAMSpec parameterizes an on-chip SRAM buffer. The energy model is a
// CACTI-like analytical fit: per-bit access energy grows with the square
// root of capacity (wordline/bitline length), scaled by a technology
// coefficient.
type SRAMSpec struct {
	Name string
	// CapacityBits is the total storage capacity.
	CapacityBits int64 `param:"capacity_bits,required"`
	// AccessBits is the width of one read/write access.
	AccessBits int `param:"access_bits,required"`
	// Banks splits the array; each bank behaves like an independent,
	// smaller SRAM (reduces per-access energy, adds area overhead).
	Banks int `param:"banks"`
	// BitPJPerSqrtKiB is the technology coefficient: pJ per accessed bit
	// per sqrt(bank KiB). Typical 28nm-class value ~0.009.
	BitPJPerSqrtKiB float64 `param:"bit_pj_per_sqrt_kib"`
	// BitPJFloor is the capacity-independent per-bit floor (drivers,
	// sense amps). Typical ~0.015 pJ/bit.
	BitPJFloor float64 `param:"bit_pj_floor"`
	// UM2PerBit is the area per bit including peripheral overhead.
	UM2PerBit float64 `param:"um2_per_bit"`
	// LeakMWPerMiB is static leakage per MiB of capacity.
	LeakMWPerMiB float64 `param:"leak_mw_per_mib"`
}

// NewSRAM builds an SRAM component from its spec.
func NewSRAM(s SRAMSpec) (Component, error) {
	if s.CapacityBits <= 0 || s.AccessBits <= 0 {
		return nil, fmt.Errorf("components: sram %s: capacity and access width must be positive", s.Name)
	}
	if s.Banks <= 0 {
		s.Banks = 1
	}
	if s.BitPJPerSqrtKiB <= 0 {
		s.BitPJPerSqrtKiB = 0.009
	}
	if s.BitPJFloor <= 0 {
		s.BitPJFloor = 0.015
	}
	if s.UM2PerBit <= 0 {
		s.UM2PerBit = 0.35
	}
	bankKiB := float64(s.CapacityBits) / float64(s.Banks) / 8 / 1024
	perBit := s.BitPJFloor + s.BitPJPerSqrtKiB*math.Sqrt(bankKiB)
	read := perBit * float64(s.AccessBits)
	// Writes drive full bitline swings: ~1.15x reads in most CACTI fits.
	write := 1.15 * read
	actions := map[string]float64{
		ActionRead:   read,
		ActionWrite:  write,
		ActionUpdate: read + write,
	}
	area := float64(s.CapacityBits) * s.UM2PerBit * (1 + 0.03*float64(s.Banks-1))
	leak := s.LeakMWPerMiB * float64(s.CapacityBits) / 8 / (1 << 20)
	return NewBase(s.Name, "sram", actions, area, leak), nil
}

// NewRegisterFile builds a small register file / latch bank with flat
// per-bit energies (no bitline scaling).
func NewRegisterFile(name string, accessBits int, bitPJ float64) Component {
	if bitPJ <= 0 {
		bitPJ = 0.0024
	}
	e := bitPJ * float64(accessBits)
	return NewBase(name, "regfile", map[string]float64{
		ActionRead:   e,
		ActionWrite:  e,
		ActionUpdate: 2 * e,
	}, 1.2*float64(accessBits), 0)
}

// regfileSpec is the regfile class's parameter schema.
type regfileSpec struct {
	Name       string
	AccessBits int     `param:"access_bits,required"`
	BitPJ      float64 `param:"bit_pj"`
}

func newRegfile(s regfileSpec) (Component, error) {
	return NewRegisterFile(s.Name, s.AccessBits, s.BitPJ), nil
}

// DRAMSpec parameterizes the off-chip DRAM model: a flat per-bit energy
// times the access word width, plus a bandwidth attribute consumed by the
// throughput model.
type DRAMSpec struct {
	Name string
	// PJPerBit is the end-to-end access energy per bit (I/O + array +
	// controller). LPDDR4-class systems are ~4-8 pJ/bit; DDR3/4-era
	// systems with PHY and controller are ~20-40 pJ/bit.
	PJPerBit float64 `param:"pj_per_bit,required"`
	// AccessBits is the width of one word access (per-action energies
	// are per word, matching the evaluator's word counts).
	AccessBits int `param:"access_bits"`
	// StaticMW is background power (refresh, PHY idle).
	StaticMW float64 `param:"static_mw"`
}

// NewDRAM builds a DRAM component.
func NewDRAM(s DRAMSpec) (Component, error) {
	if s.PJPerBit <= 0 {
		return nil, fmt.Errorf("components: dram %s: PJPerBit must be positive", s.Name)
	}
	if s.AccessBits <= 0 {
		return nil, fmt.Errorf("components: dram %s: AccessBits must be positive", s.Name)
	}
	perWord := s.PJPerBit * float64(s.AccessBits)
	actions := map[string]float64{
		ActionRead:   perWord,
		ActionWrite:  perWord,
		ActionUpdate: 2 * perWord,
	}
	// Off-chip: no on-die area charged.
	return NewBase(s.Name, "dram", actions, 0, s.StaticMW), nil
}
