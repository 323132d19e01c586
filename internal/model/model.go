package model

import (
	"photoloop/internal/arch"
	"photoloop/internal/mapping"
	"photoloop/internal/workload"
)

// Options tunes an evaluation.
type Options struct {
	// SkipValidate trusts the mapping (mapper-internal hot path).
	SkipValidate bool
	// FullLedger builds the itemized Energy ledger. The package-level
	// Evaluate always produces the full ledger; the compiled fast path
	// (Compiled.EvaluateInto) skips it unless this is set, producing only
	// the aggregate TotalPJ — the ~10x cheaper mode mapper search runs in.
	FullLedger bool
}

// Evaluate runs the analytical model for one layer and mapping, producing
// the full itemized result. It compiles the (architecture, layer) pair on
// every call — callers evaluating many mappings should Compile once and
// use the Compiled fast path instead.
func Evaluate(a *arch.Arch, l *workload.Layer, m *mapping.Mapping, opts Options) (*Result, error) {
	c, err := Compile(a, l)
	if err != nil {
		return nil, err
	}
	opts.FullLedger = true
	return c.Evaluate(m, opts)
}

// chargeEnergy converts the usage table into energy: always the aggregate
// TotalPJ, and the itemized ledger too when opts.FullLedger is set. Both
// modes accumulate the identical sequence of terms, so the aggregate is
// bit-identical either way.
func (an *analysis) chargeEnergy(res *Result, opts Options) error {
	eng := an.c.eng
	total := 0.0
	ledger := opts.FullLedger
	// add charges one resolved action; tensor names the operand the charge
	// arose for (storage-access refs are shared across tensors, so the
	// per-usage tensor is stamped here rather than baked into the ref).
	add := func(r *resolvedRef, count float64, tensor string) error {
		if count == 0 {
			return nil
		}
		if r.err != nil {
			return r.err
		}
		pj := r.pj * count
		total += pj
		if ledger {
			res.Energy = append(res.Energy, EnergyItem{
				Level:     r.level,
				Component: r.component,
				Class:     r.class,
				Action:    r.action,
				Tensor:    tensor,
				Count:     count,
				TotalPJ:   pj,
			})
		}
		return nil
	}
	chargeChain := func(refs []resolvedRef, defaultBasis, distinctBasis float64) error {
		for i := range refs {
			r := &refs[i]
			basis := defaultBasis
			if r.perDistinct {
				basis = distinctBasis
			}
			if err := add(r, basis*r.cnt, r.tensor); err != nil {
				return err
			}
		}
		return nil
	}

	for ui := range res.Usage {
		u := &res.Usage[ui]
		le := &eng.levels[u.LevelIndex]
		// Storage access energy.
		if le.hasAccess {
			ts := u.Tensor.String()
			if err := add(&le.access[0], u.Reads, ts); err != nil {
				return err
			}
			if err := add(&le.access[1], u.Writes, ts); err != nil {
				return err
			}
			if err := add(&le.access[2], u.Updates, ts); err != nil {
				return err
			}
		}
		// Converter chains.
		if err := chargeChain(le.fill[u.Tensor], u.Fills, u.FillsDistinct); err != nil {
			return err
		}
		if err := chargeChain(le.update[u.Tensor], u.Arrivals, u.Arrivals); err != nil {
			return err
		}
		if err := chargeChain(le.drain[u.Tensor], u.Drains, u.DrainsMerged); err != nil {
			return err
		}
	}

	// Per-MAC compute actions (laser supply, ring transit, digital MAC).
	for i := range eng.perMAC {
		r := &eng.perMAC[i]
		if err := add(r, float64(an.actualMACs)*r.cnt, ""); err != nil {
			return err
		}
	}

	res.TotalPJ = total
	return nil
}
