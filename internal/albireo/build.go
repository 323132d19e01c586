package albireo

import (
	"fmt"

	"photoloop/internal/arch"
	"photoloop/internal/components"
	"photoloop/internal/workload"
)

// Config parameterizes an Albireo instance. The zero value is not valid;
// start from Default.
type Config struct {
	// Scaling selects the technology projection.
	Scaling Scaling
	// Clusters is the number of photonic clusters (8 in Albireo).
	Clusters int
	// PixelLanes is the output-pixel vector width per cluster (32).
	PixelLanes int
	// OutputLanes is the number of output channels sharing one modulated
	// input via the star coupler. IR = 3 * OutputLanes (the factor 3 is
	// the window-column overlap): the paper's IR in {9, 27, 45} maps to
	// OutputLanes in {3, 9, 15}.
	OutputLanes int
	// ORLanes is the number of input-channel slices whose photocurrents
	// merge in the analog-electrical domain before one ADC sample.
	// OR = 3 * ORLanes: the paper's OR in {3, 9, 15} maps to ORLanes in
	// {1, 3, 5}.
	ORLanes int
	// WeightReuse moves the pixel-lane fan-out below the ring bank so a
	// programmed weight serves all lanes (the paper's "more weight
	// reuse" variants), at the cost of extra optical distribution loss.
	WeightReuse bool
	// WeightReuseLaserFactor inflates laser energy in WeightReuse mode
	// (extra star-coupler stage after the rings); default 1.6.
	WeightReuseLaserFactor float64
	// LaserFromBudget derives the laser's per-MAC energy from the
	// physical optical link budget (coupling, modulator and ring
	// insertion losses, star-coupler split, detector sensitivity, wall
	// plug efficiency) instead of the calibrated constant. The split
	// loss grows linearly with the IR fan-out while the carrier is
	// shared by IR multipliers, so per-MAC laser energy is
	// fan-out-invariant up to excess losses — a physical sanity check on
	// the reuse exploration.
	LaserFromBudget bool
	// GLBMiB sizes the global buffer (default 4).
	GLBMiB int
	// DRAMBWWordsPerCycle bounds DRAM bandwidth (default 32).
	DRAMBWWordsPerCycle float64
	// DRAMKeeps restricts which tensors the DRAM backs; Fused sets it per
	// layer position for layer fusion. Zero value means all.
	DRAMKeeps workload.TensorSet
	// WordBits is the operand precision (default 8).
	WordBits int
}

// Default returns the original Albireo configuration at a scaling point:
// 8 clusters x 32 pixel lanes x 3 output lanes x 9 window slots = 6912
// MACs/cycle, IR=9, OR=3.
func Default(s Scaling) Config {
	return Config{
		Scaling:                s,
		Clusters:               8,
		PixelLanes:             32,
		OutputLanes:            3,
		ORLanes:                1,
		WeightReuseLaserFactor: 1.6,
		GLBMiB:                 1,
		DRAMBWWordsPerCycle:    32,
		DRAMKeeps:              workload.AllTensorSet(),
		WordBits:               8,
	}
}

// IR returns the input-reuse factor of the paper's Fig. 5 (number of
// multipliers sharing one modulated input).
func (c Config) IR() int { return 3 * c.OutputLanes }

// OR returns the output-reuse factor of the paper's Fig. 5 (number of
// analog partial sums merged per ADC sample).
func (c Config) OR() int { return 3 * c.ORLanes }

func (c Config) validate() error {
	if c.Clusters < 1 || c.PixelLanes < 1 || c.OutputLanes < 1 || c.ORLanes < 1 {
		return fmt.Errorf("albireo: cluster/lane counts must be >= 1: %+v", c)
	}
	if c.GLBMiB < 1 {
		return fmt.Errorf("albireo: GLBMiB = %d, want >= 1", c.GLBMiB)
	}
	if c.WordBits < 1 {
		return fmt.Errorf("albireo: WordBits = %d, want >= 1", c.WordBits)
	}
	return nil
}

// Build constructs the architecture.
func (c Config) Build() (*arch.Arch, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	p := ParamsFor(c.Scaling)
	lib := components.NewLibrary()
	add := func(comp components.Component, err error) error {
		if err != nil {
			return err
		}
		return lib.Add(comp)
	}
	laser, err := c.buildLaser(p)
	if err != nil {
		return nil, err
	}
	glbBits := int64(c.GLBMiB) << 23
	if err := errFirst(
		add(components.NewDRAM(components.DRAMSpec{Name: "DRAM", PJPerBit: p.DRAMPJPerBit, AccessBits: c.WordBits})),
		add(components.NewSRAM(components.SRAMSpec{
			Name:            "GlobalBuffer",
			CapacityBits:    glbBits,
			AccessBits:      c.WordBits,
			Banks:           16,
			BitPJPerSqrtKiB: 0.009 * p.SRAMScale,
			BitPJFloor:      0.02 * p.SRAMScale,
		})),
		add(components.NewDAC(components.DACSpec{Name: "InputDAC", Bits: c.WordBits, PJPerBit: p.InputDACPJPerBit})),
		add(components.NewDAC(components.DACSpec{Name: "WeightDAC", Bits: c.WordBits, PJPerBit: p.WeightDACPJPerBit})),
		add(components.NewADC(components.ADCSpec{Name: "ReadoutADC", Bits: c.WordBits, WaldenFJPerStep: p.ADCWaldenFJPerStep})),
		add(components.NewMZM(components.MZMSpec{Name: "InputMZM", ModulatePJ: p.MZMModulatePJ})),
		add(components.NewMRR(components.MRRSpec{Name: "WeightMRR", ProgramPJ: p.MRRProgramPJ, TransitPJ: p.MRRTransitPJ})),
		add(components.NewPhotodiode(components.PhotodiodeSpec{Name: "OutputPD", DetectPJ: p.PDDetectPJ, SensitivityMW: detectorSensitivityMW})),
		lib.Add(laser),
	); err != nil {
		return nil, err
	}

	dramKeeps := c.DRAMKeeps
	if dramKeeps.Empty() {
		dramKeeps = workload.AllTensorSet()
	}

	dram := arch.Level{
		Name: "DRAM", Domain: arch.DE,
		Keeps:                  dramKeeps,
		AccessComponent:        "DRAM",
		BandwidthWordsPerCycle: c.DRAMBWWordsPerCycle,
	}
	glb := arch.Level{
		Name: "GlobalBuffer", Domain: arch.DE,
		Keeps:           workload.AllTensorSet(),
		AccessComponent: "GlobalBuffer",
		CapacityBits:    glbBits,
		Spatial: []arch.SpatialFactor{
			arch.Choice(c.Clusters, workload.DimC, workload.DimK, workload.DimN),
		},
	}
	modIn := arch.Level{
		Name: "ModulatedInput", Domain: arch.AO,
		Keeps:               workload.NewTensorSet(workload.Inputs),
		Streaming:           true,
		InputOverlapSharing: true,
		FillVia: map[workload.Tensor][]arch.ActionRef{
			workload.Inputs: {
				{Component: "InputDAC", Action: components.ActionConvert},
				{Component: "InputMZM", Action: components.ActionModulate},
			},
		},
	}
	accum := arch.Level{
		Name: "AnalogAccum", Domain: arch.AE,
		Keeps:    workload.NewTensorSet(workload.Outputs),
		WordBits: 24,
		// One capacitor per OR lane: when the lanes carry a reduction
		// dimension (C) their photocurrents merge into one slot; when
		// they carry K each lane accumulates its own output.
		CapacityBits:       24 * int64(c.ORLanes),
		MaxTemporalProduct: 1,
		Spatial: []arch.SpatialFactor{
			arch.Choice(c.ORLanes, workload.DimC, workload.DimK),
		},
		DrainVia: map[workload.Tensor][]arch.ActionRef{
			workload.Outputs: {{Component: "ReadoutADC", Action: components.ActionConvert}},
		},
	}
	pdSum := arch.Level{
		Name: "PDSum", Domain: arch.AE,
		Keeps:              workload.NewTensorSet(workload.Outputs),
		WordBits:           24,
		CapacityBits:       24,
		MaxTemporalProduct: 1,
		Spatial: []arch.SpatialFactor{
			arch.Choice(3, workload.DimS, workload.DimC),
			arch.Choice(3, workload.DimR, workload.DimC),
		},
		UpdateVia: map[workload.Tensor][]arch.ActionRef{
			workload.Outputs: {{Component: "OutputPD", Action: components.ActionDetect}},
		},
	}
	ringBank := arch.Level{
		Name: "RingBank", Domain: arch.AO,
		Keeps:              workload.NewTensorSet(workload.Weights),
		MaxTemporalProduct: 1,
		FillVia: map[workload.Tensor][]arch.ActionRef{
			workload.Weights: {
				{Component: "WeightDAC", Action: components.ActionConvert},
				{Component: "WeightMRR", Action: components.ActionProgram},
			},
		},
	}

	var levels []arch.Level
	if !c.WeightReuse {
		// Original topology: each pixel lane has its own ring; the
		// modulated input fans out across output lanes and overlapping
		// window columns (IR). Pixel lanes are positional — their
		// locally-connected optical distribution delivers per-lane
		// (overlapping) inputs, so they can serve pixel or batch
		// dimensions but cannot broadcast one input to every lane (that
		// is what the output-lane star coupler is for).
		modIn.Spatial = []arch.SpatialFactor{
			arch.Choice(c.PixelLanes, workload.DimQ, workload.DimP, workload.DimC, workload.DimN),
			arch.Choice(c.OutputLanes, workload.DimK, workload.DimN),
		}
		ringBank.CapacityBits = int64(c.WordBits)
		levels = []arch.Level{dram, glb, modIn, accum, pdSum, ringBank}
	} else {
		// More-weight-reuse topology: the pixel-lane fan-out moves below
		// the ring bank, so one programmed ring serves every lane. The
		// rings' outputs need an extra distribution stage (extra laser
		// power), and the ring bank now holds a full window of weights.
		modIn.Spatial = []arch.SpatialFactor{
			arch.Choice(c.OutputLanes, workload.DimK, workload.DimN),
		}
		// Shared rings hold one weight for every lane, so the lanes must
		// carry weight-irrelevant dimensions (pixels or batch) — a lane
		// cannot demand its own C-slice from a ring it shares.
		ringBank.Spatial = []arch.SpatialFactor{
			arch.Choice(c.PixelLanes, workload.DimQ, workload.DimP, workload.DimN),
		}
		ringBank.InputOverlapSharing = true
		ringBank.CapacityBits = int64(c.WordBits) * 9 * int64(c.ORLanes)
		levels = []arch.Level{dram, glb, modIn, ringBank, accum, pdSum}
	}

	a := &arch.Arch{
		Name:            fmt.Sprintf("albireo-%s-ir%d-or%d-wr%v", c.Scaling, c.IR(), c.OR(), c.WeightReuse),
		Levels:          levels,
		Lib:             lib,
		ClockGHz:        ParamsFor(c.Scaling).ClockGHz,
		DefaultWordBits: c.WordBits,
		Compute: arch.Compute{
			Name: "OpticalMultiplier", Domain: arch.AO,
			PerMAC: []arch.ActionRef{
				{Component: "CombLaser", Action: components.ActionSupply},
				{Component: "WeightMRR", Action: components.ActionTransit},
			},
		},
	}
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("albireo: built invalid architecture: %w", err)
	}
	return a, nil
}

// detectorSensitivityMW is the received power the link budget designs to:
// the photodiode's sensitivity floor, shared by the budget-mode laser and
// the OutputPD spec so the analog fidelity model sees the same number in
// both laser modes.
const detectorSensitivityMW = 0.05

// buildLaser constructs the comb laser, either from the calibrated per-MAC
// constant or from the physical link budget.
func (c Config) buildLaser(p Params) (components.Component, error) {
	wrFactor := 1.0
	if c.WeightReuse {
		wrFactor = c.WeightReuseLaserFactor
		if wrFactor <= 0 {
			wrFactor = 1.6
		}
	}
	if !c.LaserFromBudget {
		return components.NewLaserPerMAC("CombLaser", p.LaserPerMACPJ*wrFactor, 0)
	}
	// Physical path: fiber coupling, input MZM, the IR-way star coupler,
	// one ring pass, and on-chip routing, into the photodiode's
	// sensitivity floor, at the symbol rate, amortized over the IR
	// multipliers one carrier feeds.
	return components.NewLaser(components.LaserSpec{
		Name:                    "CombLaser",
		WallPlugEfficiency:      0.20,
		PathLossDB:              LinkBudget(c),
		DetectorSensitivityMW:   detectorSensitivityMW,
		SymbolNS:                1 / p.ClockGHz,
		MACsPerWavelengthSymbol: float64(c.IR()) / wrFactor,
	})
}

// LinkBudget returns the laser-to-detector optical path loss of a
// configuration in dB, its terms summed in path order.
func LinkBudget(c Config) float64 {
	db := 1.5                            // fiber coupling
	db += 3.0                            // input MZM insertion
	db += components.SplitLossDB(c.IR()) // star coupler split
	db += 0.5                            // star coupler excess
	db += 0.5                            // ring through
	db += 1.0                            // waveguide routing
	if c.WeightReuse {
		db += 2.0 // ring-output distribution
	}
	return db
}

func errFirst(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
