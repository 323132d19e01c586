// Package baseline builds a conventional digital-electrical DNN
// accelerator — a weight-stationary systolic-style array with a register
// file per PE, a shared global buffer, and DRAM — from the same component
// library as the photonic model. It exists for the comparison the paper's
// introduction motivates: photonic systems win on MAC and data-movement
// energy only when cross-domain conversion and DRAM costs do not eat the
// advantage, and a common modeling framework is what makes that comparison
// meaningful.
package baseline

import (
	"fmt"

	"photoloop/internal/arch"
	"photoloop/internal/components"
	"photoloop/internal/workload"
)

// Config parameterizes the electrical baseline.
type Config struct {
	// Rows x Cols is the PE array (default 64 x 108 = 6912 MACs/cycle to
	// match Albireo's peak).
	Rows, Cols int
	// MACBits is the operand precision (default 8).
	MACBits int
	// MACPJ is the per-MAC energy at 8 bits (default 0.25 pJ — a
	// 28nm-class digital MAC).
	MACPJ float64
	// GLBMiB sizes the global buffer (default 1, matching Albireo).
	GLBMiB int
	// DRAMPJPerBit matches the photonic system's DRAM (default 35).
	DRAMPJPerBit float64
	// DRAMBWWordsPerCycle bounds DRAM bandwidth (default 32).
	DRAMBWWordsPerCycle float64
	// ClockGHz is the array clock (default 1 — electrical arrays do not
	// run at photonic symbol rates).
	ClockGHz float64
}

// Default returns the baseline matched to Albireo's peak throughput.
func Default() Config {
	return Config{
		Rows: 64, Cols: 108,
		MACBits:             8,
		MACPJ:               0.25,
		GLBMiB:              1,
		DRAMPJPerBit:        35,
		DRAMBWWordsPerCycle: 32,
		ClockGHz:            1,
	}
}

// Build constructs the architecture: DRAM -> GLB (DE) -> PE register files
// (DE, weights+psums stationary) over a digital MAC array. Rows map input
// channels (spatial reduction via the column adder chains), columns map
// output channels (input multicast along rows) — the classic
// weight-stationary dataflow.
func (c Config) Build() (*arch.Arch, error) {
	if c.Rows < 1 || c.Cols < 1 {
		return nil, fmt.Errorf("baseline: array %dx%d invalid", c.Rows, c.Cols)
	}
	if c.MACBits < 1 {
		return nil, fmt.Errorf("baseline: MACBits = %d", c.MACBits)
	}
	if c.GLBMiB < 1 {
		return nil, fmt.Errorf("baseline: GLBMiB = %d", c.GLBMiB)
	}
	if c.ClockGHz <= 0 {
		return nil, fmt.Errorf("baseline: ClockGHz = %g", c.ClockGHz)
	}
	lib := components.NewLibrary()
	add := func(comp components.Component, err error) error {
		if err != nil {
			return err
		}
		return lib.Add(comp)
	}
	glbBits := int64(c.GLBMiB) << 23
	if err := firstErr(
		add(components.NewDRAM(components.DRAMSpec{
			Name: "DRAM", PJPerBit: c.DRAMPJPerBit, AccessBits: c.MACBits,
		})),
		add(components.NewSRAM(components.SRAMSpec{
			Name: "GlobalBuffer", CapacityBits: glbBits, AccessBits: c.MACBits, Banks: 16,
		})),
		func() error {
			lib.MustAdd(components.NewRegisterFile("PERegs", c.MACBits, 0))
			return nil
		}(),
		add(components.NewDigitalMAC(components.DigitalMACSpec{
			Name: "PEMAC", Bits: c.MACBits, PJAt8Bit: c.MACPJ,
		})),
		add(components.NewWire(components.WireSpec{
			Name: "ArrayNoC", WordBits: c.MACBits, LengthMM: 2, PJPerBitMM: 0.08,
		})),
	); err != nil {
		return nil, err
	}

	a := &arch.Arch{
		Name:            fmt.Sprintf("systolic-%dx%d", c.Rows, c.Cols),
		Lib:             lib,
		ClockGHz:        c.ClockGHz,
		DefaultWordBits: c.MACBits,
		Levels: []arch.Level{
			{
				Name: "DRAM", Domain: arch.DE,
				Keeps:                  workload.AllTensorSet(),
				AccessComponent:        "DRAM",
				BandwidthWordsPerCycle: c.DRAMBWWordsPerCycle,
			},
			{
				Name: "GlobalBuffer", Domain: arch.DE,
				Keeps:           workload.AllTensorSet(),
				AccessComponent: "GlobalBuffer",
				CapacityBits:    glbBits,
				Spatial: []arch.SpatialFactor{
					arch.Choice(c.Rows, workload.DimC, workload.DimR, workload.DimK),
					arch.Choice(c.Cols, workload.DimK, workload.DimQ, workload.DimP, workload.DimN),
				},
			},
			{
				Name: "PERegs", Domain: arch.DE,
				Keeps:           workload.AllTensorSet(),
				AccessComponent: "PERegs",
				// A few words per operand per PE.
				CapacityBits: int64(c.MACBits) * 48,
				FillVia: map[workload.Tensor][]arch.ActionRef{
					workload.Inputs:  {{Component: "ArrayNoC", Action: components.ActionTransfer, PerDistinct: true}},
					workload.Weights: {{Component: "ArrayNoC", Action: components.ActionTransfer, PerDistinct: true}},
				},
			},
		},
		Compute: arch.Compute{
			Name: "PEArray", Domain: arch.DE,
			PerMAC: []arch.ActionRef{{Component: "PEMAC", Action: components.ActionMAC}},
		},
	}
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("baseline: built invalid architecture: %w", err)
	}
	return a, nil
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
