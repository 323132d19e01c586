// Package components is the plug-in energy/area estimator library, playing
// the role Accelergy plays underneath CiMLoop: every hardware primitive —
// electrical (SRAM, DRAM, ADC, DAC, digital MAC, wires) and photonic
// (microring resonators, Mach-Zehnder modulators, photodiodes, lasers, star
// couplers, waveguides) — is a Component exposing per-action energies in
// picojoules, area in square micrometers, and static power in milliwatts.
//
// Components are deliberately parameter-driven rather than
// technology-table-driven: the paper's three Albireo scaling projections
// (conservative / moderate / aggressive) are expressed as three parameter
// sets over the same classes (see internal/albireo).
package components

import (
	"fmt"
	"sort"
)

// Standard action names shared across component classes. A component only
// supports the subset that makes physical sense for it.
const (
	ActionRead     = "read"     // read one word
	ActionWrite    = "write"    // write one word
	ActionUpdate   = "update"   // read-modify-write one word (accumulation)
	ActionConvert  = "convert"  // convert one value across domains (ADC/DAC)
	ActionProgram  = "program"  // (re)program a stored analog value (MRR weight)
	ActionModulate = "modulate" // modulate one value onto an optical carrier
	ActionDetect   = "detect"   // detect one optical value (photodiode+TIA)
	ActionTransit  = "transit"  // pass through a passive/low-energy element
	ActionMAC      = "mac"      // one multiply-accumulate
	ActionTransfer = "transfer" // move one word across a wire/link
	ActionSupply   = "supply"   // per-MAC optical supply energy (laser)
)

// Component is the estimator interface. Energies are picojoules per action,
// area is µm², static power is mW.
type Component interface {
	// Name identifies this component instance (e.g. "GlobalBuffer").
	Name() string
	// Class identifies the component class (e.g. "sram").
	Class() string
	// Energy returns the energy of one action in picojoules.
	Energy(action string) (float64, error)
	// Area returns the component area in square micrometers.
	Area() float64
	// StaticPower returns always-on power in milliwatts (e.g. laser wall
	// plug, ring heaters). It is hashed into the architecture fingerprint
	// and is not charged by the evaluator.
	StaticPower() float64
	// Actions lists the supported action names, sorted.
	Actions() []string
}

// Base is a table-driven Component implementation embedded by concrete
// classes.
type Base struct {
	name    string
	class   string
	actions map[string]float64 // pJ per action
	area    float64            // µm²
	static  float64            // mW
}

// NewBase builds a table-driven component.
func NewBase(name, class string, actions map[string]float64, area, static float64) *Base {
	cp := make(map[string]float64, len(actions))
	for k, v := range actions {
		cp[k] = v
	}
	return &Base{name: name, class: class, actions: cp, area: area, static: static}
}

// Name implements Component.
func (b *Base) Name() string { return b.name }

// Class implements Component.
func (b *Base) Class() string { return b.class }

// Energy implements Component.
func (b *Base) Energy(action string) (float64, error) {
	e, ok := b.actions[action]
	if !ok {
		return 0, fmt.Errorf("components: %s (%s) does not support action %q", b.name, b.class, action)
	}
	return e, nil
}

// Area implements Component.
func (b *Base) Area() float64 { return b.area }

// StaticPower implements Component.
func (b *Base) StaticPower() float64 { return b.static }

// Actions implements Component.
func (b *Base) Actions() []string {
	out := make([]string, 0, len(b.actions))
	for a := range b.actions {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// Params is a flat parameter bag used by the class registry (the Accelergy
// "attributes" analogue) for spec-driven construction.
type Params map[string]float64

// Get returns the named parameter or the default.
func (p Params) Get(key string, def float64) float64 {
	if v, ok := p[key]; ok {
		return v
	}
	return def
}

// Require returns the named parameter or an error.
func (p Params) Require(key string) (float64, error) {
	v, ok := p[key]
	if !ok {
		return 0, fmt.Errorf("components: missing required parameter %q", key)
	}
	return v, nil
}

// Factory builds a component of some class from parameters.
type Factory func(name string, p Params) (Component, error)

var registry = map[string]Factory{}

// RegisterClass installs a factory for a component class. It panics on
// duplicate registration (a programming error).
func RegisterClass(class string, f Factory) {
	if _, dup := registry[class]; dup {
		panic(fmt.Sprintf("components: duplicate class %q", class))
	}
	registry[class] = f
}

// Build constructs a component of the named class.
func Build(class, name string, p Params) (Component, error) {
	f, ok := registry[class]
	if !ok {
		return nil, fmt.Errorf("components: unknown class %q", class)
	}
	return f(name, p)
}

// Classes returns the registered class names, sorted.
func Classes() []string {
	out := make([]string, 0, len(registry))
	for c := range registry {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}
