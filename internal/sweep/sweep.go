// Package sweep is the batched design-space-exploration front end of the
// modeling framework: a declarative Spec names a base architecture (an
// Albireo configuration or a raw architecture spec), a grid of axes
// mutating it, a set of workloads, and mapper objectives; Run evaluates
// the cross product's points on one worker pool of mapper sessions
// (Evaluator.EvalPoints), deduplicating identical (architecture, layer shape) searches
// through a fingerprint-keyed result cache (mapper.Cache).
//
// The paper's figures 4 and 5 are sweeps (internal/exp builds its grids
// with this package), `photoloop sweep` runs a Spec from JSON, and
// `photoloop serve` exposes the same engine over HTTP — one code path from
// figure reproduction to serving.
package sweep

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"photoloop/internal/albireo"
	"photoloop/internal/arch"
	"photoloop/internal/fidelity"
	"photoloop/internal/presets"
	"photoloop/internal/spec"
	"photoloop/internal/workload"
)

// Spec declares a sweep: base × axes × workloads × objectives.
type Spec struct {
	// Name labels the sweep in outputs.
	Name string `json:"name,omitempty"`
	// Base is the architecture every variant starts from.
	Base Base `json:"base"`
	// Axes is the variant grid; the cross product of all axis values is
	// swept, first axis most significant (slowest varying).
	Axes []Axis `json:"axes,omitempty"`
	// Workloads are evaluated for every variant.
	Workloads []Workload `json:"workloads"`
	// Objectives are mapper objectives ("energy", "delay", "edp");
	// default is energy only.
	Objectives []string `json:"objectives,omitempty"`
	// Budget is the mapper evaluation budget per layer (0 = mapper
	// default).
	Budget int `json:"budget,omitempty"`
	// Seed fixes the mapper's randomness (0 = mapper default).
	Seed int64 `json:"seed,omitempty"`
	// SearchWorkers is the per-layer search's lane count: semantic,
	// default mapper.DefaultLanes (0); run on min(lanes, GOMAXPROCS)
	// goroutines. Above 64 is rejected. Results are deterministic for a
	// fixed (Seed, SearchWorkers) pair.
	SearchWorkers int `json:"search_workers,omitempty"`
	// Fidelity enables the analog error model: every point's best
	// mappings are rolled up through the compiled fidelity chain
	// (fidelity.Compile) and the point carries MAC-weighted effective
	// bits, SNR and estimated accuracy degradation. A closed-form
	// post-pass — energy/delay/area results are bit-identical with it on
	// or off.
	Fidelity *fidelity.Spec `json:"fidelity,omitempty"`
	// IncludeLayers adds per-layer outcomes to every point (larger
	// output).
	IncludeLayers bool `json:"include_layers,omitempty"`
}

// Base selects the architecture a sweep starts from: exactly one of
// Albireo, Arch or Preset must be set.
type Base struct {
	// Albireo starts from the paper's Albireo instantiation.
	Albireo *AlbireoBase `json:"albireo,omitempty"`
	// Arch starts from a raw architecture spec document.
	Arch *spec.ArchSpec `json:"arch,omitempty"`
	// Preset starts from a named architecture of the preset library
	// (presets.ByName). Albireo-backed presets behave like Albireo bases
	// (Albireo axes, fused workloads); the electrical preset accepts no
	// axes.
	Preset string `json:"preset,omitempty"`
}

// set counts how many base selectors are populated.
func (b *Base) set() int {
	n := 0
	if b.Albireo != nil {
		n++
	}
	if b.Arch != nil {
		n++
	}
	if b.Preset != "" {
		n++
	}
	return n
}

// AlbireoBase parameterizes the Albireo starting point.
type AlbireoBase struct {
	// Scaling is the technology projection ("conservative", "moderate",
	// "aggressive"); default conservative.
	Scaling string `json:"scaling,omitempty"`
}

// config resolves the base into an Albireo configuration.
func (b *AlbireoBase) config() (albireo.Config, error) {
	cfg := albireo.Default(albireo.Conservative)
	if b.Scaling != "" {
		sc, err := albireo.ParseScaling(b.Scaling)
		if err != nil {
			return albireo.Config{}, fmt.Errorf("sweep: base: %w", err)
		}
		cfg.Scaling = sc
	}
	return cfg, nil
}

// Axis is one sweep dimension: a parameter name and the values it takes.
//
// Albireo bases accept "scaling" (string), "weight_reuse" and
// "laser_from_budget" (bool), "clusters", "pixel_lanes", "output_lanes",
// "or_lanes", "glb_mib", "word_bits" (int), and
// "dram_bw_words_per_cycle", "weight_reuse_laser_factor" (float).
//
// Raw-spec bases accept "clock_ghz" (float) and component parameter
// overrides spelled "component.<name>.<param>" (float), e.g.
// "component.ADC.walden_fj_per_step".
type Axis struct {
	Param  string `json:"param"`
	Values []any  `json:"values"`
}

// Workload is one network evaluated per variant.
type Workload struct {
	// Network names a zoo network (workload.ZooEntries lists them).
	Network string `json:"network,omitempty"`
	// Inline embeds a network document instead of naming one.
	Inline *workload.Network `json:"inline,omitempty"`
	// Batch is the batch size (default 1).
	Batch int `json:"batch,omitempty"`
	// Fused keeps activations on chip between layers (Albireo bases
	// only).
	Fused bool `json:"fused,omitempty"`
}

// resolve returns the workload's network at its batch size and a label.
func (w *Workload) resolve() (workload.Network, string, error) {
	switch {
	case w.Network != "" && w.Inline != nil:
		return workload.Network{}, "", fmt.Errorf("sweep: workload sets both network %q and an inline network", w.Network)
	case w.Network != "":
		n, err := workload.ByName(w.Network, max(1, w.Batch))
		if err != nil {
			return workload.Network{}, "", fmt.Errorf("sweep: %w", err)
		}
		return n, w.Network, nil
	case w.Inline != nil:
		n := w.Inline.WithBatch(max(1, w.Batch))
		if err := n.Validate(); err != nil {
			return workload.Network{}, "", fmt.Errorf("sweep: inline network: %w", err)
		}
		return n, n.Name, nil
	default:
		return workload.Network{}, "", fmt.Errorf("sweep: workload names no network")
	}
}

// variant is one grid point of the axes: a fully-applied base plus the
// axis assignments that produced it, and the evaluation state every point
// of the variant shares.
type variant struct {
	label   string
	params  map[string]any
	albireo *albireo.Config // Albireo bases and albireo-backed presets
	arch    *spec.ArchSpec  // raw-spec bases (deep copy with overrides)
	preset  *presets.Preset // non-albireo presets (the electrical baseline)
	state   variantState
}

// build constructs the variant's architecture (the unfused one, for
// Albireo bases — evaluate builds a fused workload's per-position
// architectures from albireo.Config.Fused).
func (v *variant) build() (*arch.Arch, error) {
	if v.albireo != nil {
		return v.albireo.Build()
	}
	if v.preset != nil {
		return v.preset.Build()
	}
	return v.arch.Build()
}

// buildInput returns the variant's build input, the value its
// architecture is a pure function of, as mapper.SessionForInput's key:
// the Albireo configuration, or the non-Albireo preset's name. A raw-spec
// base has none (nil): its document is no comparable value.
func (v *variant) buildInput() any {
	switch {
	case v.albireo != nil:
		return newAlbireoInput(*v.albireo)
	case v.preset != nil:
		return presetInput(v.preset.Name)
	}
	return nil
}

// presetInput keys a session by the name of the non-Albireo preset it is
// built from.
type presetInput string

// albireoInput keys a session by the Albireo configuration it is built
// from. The floats enter as bits too: 0 and -0 compare equal but build
// architectures that fingerprint, and so cache, differently.
type albireoInput struct {
	cfg             albireo.Config
	bw, laserFactor uint64
}

func newAlbireoInput(c albireo.Config) albireoInput {
	return albireoInput{c, math.Float64bits(c.DRAMBWWordsPerCycle), math.Float64bits(c.WeightReuseLaserFactor)}
}

// base resolves the spec's base into the variant every axis assignment
// starts from (no axis applied yet): the Albireo configuration, the
// preset, or the raw spec document itself.
func (s *Spec) base() (*variant, error) {
	if s.Base.set() != 1 {
		return nil, fmt.Errorf("sweep: base must set exactly one of albireo, arch or preset")
	}
	for _, ax := range s.Axes {
		if ax.Param == "" {
			return nil, fmt.Errorf("sweep: axis has no param")
		}
	}
	v := &variant{arch: s.Base.Arch}
	switch {
	case s.Base.Albireo != nil:
		cfg, err := s.Base.Albireo.config()
		if err != nil {
			return nil, err
		}
		v.albireo = &cfg
	case s.Base.Preset != "":
		p, err := presets.ByName(s.Base.Preset)
		if err != nil {
			return nil, &specError{pos: "base", err: err}
		}
		if cfg, ok := p.Albireo(); ok {
			v.albireo = &cfg
		} else {
			v.preset = p
		}
	}
	return v, nil
}

// maxVariants bounds a sweep's grid (a typo guard, not a capability
// limit — fig-5-scale explorations are tens of variants).
const maxVariants = 100000

// variantWith materializes the variant for one explicit value per axis on
// top of the resolved base: a grid point's values decoded by
// Evaluator.jobAt, or the values Evaluator.Validate checks for an
// explorer before it spends any evaluation.
func (s *Spec) variantWith(base *variant, values []any) (*variant, error) {
	if len(values) != len(s.Axes) {
		return nil, fmt.Errorf("sweep: got %d axis values for %d axes", len(values), len(s.Axes))
	}
	v := &variant{params: make(map[string]any, len(s.Axes)), arch: base.arch, preset: base.preset}
	if base.albireo != nil {
		cfg := *base.albireo
		v.albireo = &cfg
	}
	if v.arch != nil && len(s.Axes) > 0 {
		// Axes override the document in place: give the variant its own
		// deep copy so the caller's spec is never aliased.
		cp, err := copyArchSpec(v.arch)
		if err != nil {
			return nil, err
		}
		v.arch = cp
	}
	var labels []string
	for i, ax := range s.Axes {
		val, err := v.apply(ax.Param, values[i])
		if err != nil {
			return nil, err
		}
		v.params[ax.Param] = val
		labels = append(labels, fmt.Sprintf("%s=%v", ax.Param, val))
	}
	v.label = strings.Join(labels, " ")
	return v, nil
}

// apply sets one axis parameter on the variant and returns the canonical
// (coerced) value.
func (v *variant) apply(param string, raw any) (any, error) {
	if v.albireo != nil {
		return v.applyAlbireo(param, raw)
	}
	if v.preset != nil {
		return nil, fmt.Errorf("sweep: axis %q: preset %q is not albireo-backed and accepts no axes", param, v.preset.Name)
	}
	return v.applyArch(param, raw)
}

func (v *variant) applyAlbireo(param string, raw any) (any, error) {
	c := v.albireo
	switch param {
	case "scaling":
		name, ok := raw.(string)
		if !ok {
			return nil, axisTypeErr(param, raw, "string")
		}
		sc, err := albireo.ParseScaling(name)
		if err != nil {
			return nil, fmt.Errorf("sweep: axis %q: %w", param, err)
		}
		c.Scaling = sc
		return name, nil
	case "weight_reuse", "laser_from_budget":
		b, ok := raw.(bool)
		if !ok {
			return nil, axisTypeErr(param, raw, "bool")
		}
		if param == "weight_reuse" {
			c.WeightReuse = b
		} else {
			c.LaserFromBudget = b
		}
		return b, nil
	case "clusters", "pixel_lanes", "output_lanes", "or_lanes", "glb_mib", "word_bits":
		n, ok := asInt(raw)
		if !ok {
			return nil, axisTypeErr(param, raw, "int")
		}
		switch param {
		case "clusters":
			c.Clusters = n
		case "pixel_lanes":
			c.PixelLanes = n
		case "output_lanes":
			c.OutputLanes = n
		case "or_lanes":
			c.ORLanes = n
		case "glb_mib":
			c.GLBMiB = n
		case "word_bits":
			c.WordBits = n
		}
		return n, nil
	case "dram_bw_words_per_cycle", "weight_reuse_laser_factor":
		f, ok := asFloat(raw)
		if !ok {
			return nil, axisTypeErr(param, raw, "number")
		}
		if param == "dram_bw_words_per_cycle" {
			c.DRAMBWWordsPerCycle = f
		} else {
			c.WeightReuseLaserFactor = f
		}
		return f, nil
	}
	return nil, fmt.Errorf("sweep: unknown albireo axis param %q", param)
}

func (v *variant) applyArch(param string, raw any) (any, error) {
	if param == "clock_ghz" {
		f, ok := asFloat(raw)
		if !ok {
			return nil, axisTypeErr(param, raw, "number")
		}
		v.arch.ClockGHz = f
		return f, nil
	}
	if rest, ok := strings.CutPrefix(param, "component."); ok {
		name, key, ok := strings.Cut(rest, ".")
		if !ok {
			return nil, fmt.Errorf("sweep: axis param %q: want component.<name>.<param>", param)
		}
		f, okF := asFloat(raw)
		if !okF {
			return nil, axisTypeErr(param, raw, "number")
		}
		for i := range v.arch.Components {
			if v.arch.Components[i].Name != name {
				continue
			}
			// v.arch is this variant's own deep copy (copyArchSpec), so
			// writing in place cannot alias the base document.
			if v.arch.Components[i].Params == nil {
				v.arch.Components[i].Params = map[string]float64{}
			}
			v.arch.Components[i].Params[key] = f
			return f, nil
		}
		return nil, fmt.Errorf("sweep: axis %q: spec has no component %q", param, name)
	}
	return nil, fmt.Errorf("sweep: unknown arch axis param %q", param)
}

func axisTypeErr(param string, raw any, want string) error {
	return fmt.Errorf("sweep: axis %q: value %v (%T) is not a %s", param, raw, raw, want)
}

// asInt accepts Go ints and the float64s JSON decoding produces, rejecting
// non-integral floats.
func asInt(raw any) (int, bool) {
	switch n := raw.(type) {
	case int:
		return n, true
	case int64:
		return int(n), true
	case float64:
		if n != math.Trunc(n) || math.IsInf(n, 0) {
			return 0, false
		}
		return int(n), true
	case json.Number:
		i, err := n.Int64()
		if err != nil {
			return 0, false
		}
		return int(i), true
	}
	return 0, false
}

func asFloat(raw any) (float64, bool) {
	switch n := raw.(type) {
	case int:
		return float64(n), true
	case int64:
		return float64(n), true
	case float64:
		return n, true
	case json.Number:
		f, err := n.Float64()
		if err != nil {
			return 0, false
		}
		return f, true
	}
	return 0, false
}

// copyArchSpec deep-copies a raw architecture spec through its JSON form,
// so per-variant overrides never alias the caller's document.
func copyArchSpec(s *spec.ArchSpec) (*spec.ArchSpec, error) {
	buf, err := json.Marshal(s)
	if err != nil {
		return nil, fmt.Errorf("sweep: copying arch spec: %w", err)
	}
	var out spec.ArchSpec
	if err := json.Unmarshal(buf, &out); err != nil {
		return nil, fmt.Errorf("sweep: copying arch spec: %w", err)
	}
	return &out, nil
}
