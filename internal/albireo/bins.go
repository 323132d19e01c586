package albireo

import (
	"photoloop/internal/model"
	"photoloop/internal/workload"
)

// Fig2Bin is the component-oriented grouping of the paper's Fig. 2 energy
// breakdown (accelerator + laser; DRAM excluded).
type Fig2Bin string

// Fig. 2 bins, in the paper's legend order.
const (
	BinMRR   Fig2Bin = "MRR"
	BinMZM   Fig2Bin = "MZM"
	BinLaser Fig2Bin = "Laser"
	BinAOAE  Fig2Bin = "AO/AE"
	BinDEAE  Fig2Bin = "DE/AE"
	BinAEDE  Fig2Bin = "AE/DE"
	BinCache Fig2Bin = "Cache"
	BinDRAM  Fig2Bin = "DRAM" // excluded from Fig. 2 totals, used by Fig. 4
	BinOther Fig2Bin = "Other"
)

// Fig2Bins lists the accelerator bins in legend order.
func Fig2Bins() []Fig2Bin {
	return []Fig2Bin{BinMRR, BinMZM, BinLaser, BinAOAE, BinDEAE, BinAEDE, BinCache}
}

// ClassifyFig2 maps a ledger entry to its Fig. 2 bin.
func ClassifyFig2(e *model.EnergyItem) Fig2Bin {
	switch e.Class {
	case "mrr":
		return BinMRR
	case "mzm":
		return BinMZM
	case "laser":
		return BinLaser
	case "photodiode":
		return BinAOAE
	case "dac":
		return BinDEAE
	case "adc":
		return BinAEDE
	case "sram", "regfile":
		return BinCache
	case "dram":
		return BinDRAM
	}
	return BinOther
}

// RoleBin is the role-oriented grouping of the paper's Figs. 4 and 5.
type RoleBin string

// Fig. 4/5 bins, in the paper's legend order.
const (
	RoleOtherAO    RoleBin = "Other AO"
	RoleWeightConv RoleBin = "Weight DE/AE, AE/AO"
	RoleInputConv  RoleBin = "Input DE/AE, AE/AO"
	RoleOutputConv RoleBin = "Output AO/AE, AE/DE"
	RoleBuffer     RoleBin = "On-Chip Buffer"
	RoleDRAM       RoleBin = "DRAM"
	RoleOther      RoleBin = "Other"
)

// RoleBins lists the role bins in legend order.
func RoleBins() []RoleBin {
	return []RoleBin{RoleOtherAO, RoleWeightConv, RoleInputConv, RoleOutputConv, RoleBuffer, RoleDRAM}
}

// ClassifyRole maps a ledger entry to its Fig. 4/5 bin.
func ClassifyRole(e *model.EnergyItem) RoleBin {
	switch e.Class {
	case "laser":
		return RoleOtherAO
	case "mrr":
		if e.Action == "transit" {
			return RoleOtherAO
		}
		return RoleWeightConv
	case "mzm":
		return RoleInputConv
	case "photodiode", "adc":
		return RoleOutputConv
	case "dac":
		switch e.Tensor {
		case workload.Weights.String():
			return RoleWeightConv
		case workload.Inputs.String():
			return RoleInputConv
		default:
			return RoleOutputConv
		}
	case "sram", "regfile":
		return RoleBuffer
	case "dram":
		return RoleDRAM
	}
	return RoleOther
}

// Fig2Breakdown groups a result's ledger into Fig. 2 bins (pJ).
func Fig2Breakdown(r *model.Result) map[Fig2Bin]float64 {
	out := map[Fig2Bin]float64{}
	for i := range r.Energy {
		out[ClassifyFig2(&r.Energy[i])] += r.Energy[i].TotalPJ
	}
	return out
}

// RoleBreakdown groups results' ledgers into Fig. 4/5 bins (pJ), walking
// the results in order and each ledger in order — so a network's
// per-layer results sum exactly as one concatenated ledger would.
func RoleBreakdown(rs ...*model.Result) map[RoleBin]float64 {
	out := map[RoleBin]float64{}
	for _, r := range rs {
		for i := range r.Energy {
			out[ClassifyRole(&r.Energy[i])] += r.Energy[i].TotalPJ
		}
	}
	return out
}

// AcceleratorPJ sums results' energy excluding DRAM (the paper's Fig. 2
// scope: accelerator + laser).
func AcceleratorPJ(rs ...*model.Result) float64 {
	var sum float64
	for _, r := range rs {
		for i := range r.Energy {
			if r.Energy[i].Class != "dram" {
				sum += r.Energy[i].TotalPJ
			}
		}
	}
	return sum
}

// ConverterPJ sums all cross-domain conversion energy (DAC, ADC, MZM, MRR
// programming, photodiode) in results — the quantity the paper's Fig. 5
// reduces by 42%.
func ConverterPJ(rs ...*model.Result) float64 {
	var sum float64
	for _, r := range rs {
		for i := range r.Energy {
			e := &r.Energy[i]
			switch e.Class {
			case "dac", "adc", "mzm", "photodiode":
				sum += e.TotalPJ
			case "mrr":
				if e.Action == "program" {
					sum += e.TotalPJ
				}
			}
		}
	}
	return sum
}
