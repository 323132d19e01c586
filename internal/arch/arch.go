package arch

import (
	"fmt"
	"sync"

	"photoloop/internal/components"
	"photoloop/internal/workload"
)

// Arch is a complete accelerator description: an ordered storage hierarchy
// (outermost first), a compute array, and the component library the levels
// reference.
//
// Mapping-independent invariants (total area, per-tensor keep chains) are
// cached lazily on first use: an Arch must not be structurally modified —
// levels added or removed, Keeps changed, components swapped — after the
// first call to Area or KeepLevels. Tuning per-level flags (Streaming,
// InputOverlapSharing, capacities, bandwidths) stays safe at any time; those
// do not feed the caches.
type Arch struct {
	Name string
	// Levels is ordered outermost (backing store) to innermost (operand
	// stations feeding compute).
	Levels  []Level
	Compute Compute
	// Lib holds the component instances referenced by levels and compute.
	Lib *components.Library
	// ClockGHz is the compute symbol/cycle rate.
	ClockGHz float64
	// DefaultWordBits is the operand word size unless a level overrides.
	DefaultWordBits int

	areaOnce sync.Once
	areaVal  float64
	areaErr  error

	keepOnce sync.Once
	keepTab  [workload.NumTensors][]int
}

// NumLevels returns the number of storage levels.
func (a *Arch) NumLevels() int { return len(a.Levels) }

// Level returns the i-th storage level (0 = outermost).
func (a *Arch) Level(i int) *Level { return &a.Levels[i] }

// LevelByName finds a storage level by name.
func (a *Arch) LevelByName(name string) (*Level, int, error) {
	for i := range a.Levels {
		if a.Levels[i].Name == name {
			return &a.Levels[i], i, nil
		}
	}
	return nil, -1, fmt.Errorf("arch: %s has no level %q", a.Name, name)
}

// KeepLevels returns the indices (outermost first) of the levels that keep
// tensor t. The result is computed once and cached; the returned slice is
// shared — callers must not modify it.
func (a *Arch) KeepLevels(t workload.Tensor) []int {
	a.keepOnce.Do(func() {
		for _, tt := range workload.AllTensors() {
			a.keepTab[tt] = a.scanKeepLevels(tt)
		}
	})
	return a.keepTab[t]
}

// scanKeepLevels recomputes the keep chain without touching the cache —
// validation and diagnostics use it so they stay correct on architectures
// still under construction or modification.
func (a *Arch) scanKeepLevels(t workload.Tensor) []int {
	var out []int
	for i := range a.Levels {
		if a.Levels[i].Keeps.Has(t) {
			out = append(out, i)
		}
	}
	return out
}

// PeakMACsPerCycle returns the compute array width: the product of all
// level fan-outs at their maximum. One compute instance performs one MAC
// per cycle.
func (a *Arch) PeakMACsPerCycle() int64 {
	peak := int64(1)
	for i := range a.Levels {
		peak *= a.Levels[i].MaxTotalFanout()
	}
	return peak
}

// InstancesAtLevel returns how many instances of level i exist at maximum
// fan-out (the product of fan-outs of all levels above it).
func (a *Arch) InstancesAtLevel(i int) int64 {
	n := int64(1)
	for j := 0; j < i; j++ {
		n *= a.Levels[j].MaxTotalFanout()
	}
	return n
}

// Area sums the area of every component instance, multiplied by its
// replication across level instances. Components referenced by multiple
// levels are counted per reference site. The sum is mapping independent and
// computed once; subsequent calls return the cached value.
func (a *Arch) Area() (float64, error) {
	a.areaOnce.Do(func() {
		a.areaVal, a.areaErr = a.computeArea()
	})
	return a.areaVal, a.areaErr
}

func (a *Arch) computeArea() (float64, error) {
	var total float64
	addRef := func(ref ActionRef, copies int64) error {
		c, err := a.Lib.Get(ref.Component)
		if err != nil {
			return err
		}
		total += c.Area() * float64(copies)
		return nil
	}
	for i := range a.Levels {
		l := &a.Levels[i]
		copies := a.InstancesAtLevel(i)
		if l.AccessComponent != "" {
			c, err := a.Lib.Get(l.AccessComponent)
			if err != nil {
				return 0, err
			}
			total += c.Area() * float64(copies)
		}
		for _, refs := range l.FillVia {
			for _, r := range refs {
				if err := addRef(r, copies); err != nil {
					return 0, err
				}
			}
		}
		for _, refs := range l.UpdateVia {
			for _, r := range refs {
				if err := addRef(r, copies); err != nil {
					return 0, err
				}
			}
		}
		for _, refs := range l.DrainVia {
			for _, r := range refs {
				if err := addRef(r, copies); err != nil {
					return 0, err
				}
			}
		}
	}
	computeCopies := a.PeakMACsPerCycle()
	for _, r := range a.Compute.PerMAC {
		if err := addRef(r, computeCopies); err != nil {
			return 0, err
		}
	}
	return total, nil
}

// libChecker adapts the component library to the validation interface.
type libChecker struct{ lib *components.Library }

// CheckAction verifies that the named component exists and supports action.
func (c libChecker) CheckAction(component, action string) error {
	comp, err := c.lib.Get(component)
	if err != nil {
		return err
	}
	if _, err := comp.Energy(action); err != nil {
		return err
	}
	return nil
}

// Validate checks structural consistency: non-empty unique level names, a
// backing store that keeps all tensors, resolvable component references,
// and sane numeric attributes. It does not check mapping-dependent
// properties (capacity fits) — the model does that per mapping.
func (a *Arch) Validate() error {
	if a.Name == "" {
		return fmt.Errorf("arch: architecture has no name")
	}
	if len(a.Levels) == 0 {
		return fmt.Errorf("arch: %s has no storage levels", a.Name)
	}
	if a.Lib == nil {
		return fmt.Errorf("arch: %s has no component library", a.Name)
	}
	if a.ClockGHz <= 0 {
		return fmt.Errorf("arch: %s: ClockGHz = %g, want > 0", a.Name, a.ClockGHz)
	}
	if a.DefaultWordBits <= 0 {
		return fmt.Errorf("arch: %s: DefaultWordBits = %d, want > 0", a.Name, a.DefaultWordBits)
	}
	checker := libChecker{a.Lib}
	seen := map[string]bool{}
	for i := range a.Levels {
		l := &a.Levels[i]
		if l.Name == "" {
			return fmt.Errorf("arch: %s: level %d has no name", a.Name, i)
		}
		if seen[l.Name] {
			return fmt.Errorf("arch: %s: duplicate level name %q", a.Name, l.Name)
		}
		seen[l.Name] = true
		if l.CapacityBits < 0 {
			return fmt.Errorf("arch: level %s: negative capacity", l.Name)
		}
		if l.Keeps.Empty() {
			return fmt.Errorf("arch: level %s keeps no tensors; remove it instead", l.Name)
		}
		for j := range l.Spatial {
			if err := l.Spatial[j].Validate(); err != nil {
				return fmt.Errorf("arch: level %s spatial factor %d: %w", l.Name, j, err)
			}
		}
		if l.MaxFanout < 0 {
			return fmt.Errorf("arch: level %s: negative MaxFanout", l.Name)
		}
		if err := l.validateRefs(checker, true); err != nil {
			return err
		}
	}
	// Every tensor must have a backing store somewhere. (The outermost
	// level usually keeps everything, but layer-fusion studies pin
	// activations to an inner buffer and bypass DRAM for them.)
	for _, t := range workload.AllTensors() {
		if len(a.scanKeepLevels(t)) == 0 {
			return fmt.Errorf("arch: %s: no level keeps %v", a.Name, t)
		}
	}
	for _, r := range a.Compute.PerMAC {
		if err := checker.CheckAction(r.Component, r.Action); err != nil {
			return fmt.Errorf("arch: compute %s: %w", a.Compute.Name, err)
		}
	}
	return nil
}

// DomainGaps reports edges on each tensor's keep-chain that cross domains
// without any converter chain — usually a modeling omission. Returned
// strings are human-readable diagnostics.
func (a *Arch) DomainGaps() []string {
	var gaps []string
	for _, t := range workload.AllTensors() {
		keeps := a.scanKeepLevels(t)
		for i := 1; i < len(keeps); i++ {
			outer, inner := &a.Levels[keeps[i-1]], &a.Levels[keeps[i]]
			if outer.Domain == inner.Domain {
				continue
			}
			cross := Crossing{outer.Domain, inner.Domain}
			if t == workload.Outputs {
				if len(inner.DrainVia[t]) == 0 {
					gaps = append(gaps, fmt.Sprintf("%v drain %s->%s crosses %s with no converters",
						t, inner.Name, outer.Name, Crossing{inner.Domain, outer.Domain}))
				}
			} else if len(inner.FillVia[t]) == 0 {
				gaps = append(gaps, fmt.Sprintf("%v fill %s->%s crosses %s with no converters",
					t, outer.Name, inner.Name, cross))
			}
		}
	}
	return gaps
}
