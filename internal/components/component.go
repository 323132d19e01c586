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
	"reflect"
	"slices"
	"sort"
	"strings"
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

// Params is a flat parameter bag (the Accelergy "attributes" analogue)
// from which Build constructs a component of a registered class.
type Params map[string]float64

// A schema is one parameter schema of a class: the fields of its spec
// struct tagged `param:"name"`, with ",required" on a name the bag must
// hold, decoded over the class's default spec.
type schema struct {
	class  string
	def    any      // the default spec a bag is decoded over
	names  []string // the declared names, in field order
	params []param  // params[i] is how names[i] is set
	build  func(name string, p Params) (Component, error)
}

type param struct {
	required bool
	field    int // index in the spec struct
}

// newSchema reads the param tags of S. Its build decodes a bag into a
// copy of def, sets the spec's Name and calls ctor.
func newSchema[S any](class string, def S, ctor func(S) (Component, error)) *schema {
	t := reflect.TypeOf(def)
	s := &schema{class: class, def: def}
	for i := 0; i < t.NumField(); i++ {
		if tag, ok := t.Field(i).Tag.Lookup("param"); ok {
			name, required := strings.CutSuffix(tag, ",required")
			s.names = append(s.names, name)
			s.params = append(s.params, param{required, i})
		}
	}
	s.build = func(name string, p Params) (Component, error) {
		spec := s.def.(S)
		v := reflect.ValueOf(&spec).Elem()
		v.FieldByName("Name").SetString(name)
		if err := s.decode(name, p, v); err != nil {
			return nil, err
		}
		return ctor(spec)
	}
	return s
}

// decode sets v's fields from p. An integer field takes the value
// truncated toward zero, as a Go conversion does. A name the schema does
// not declare is an error, and so is a missing required one.
func (s *schema) decode(name string, p Params, v reflect.Value) error {
	var unknown []string
	for k := range p {
		if !slices.Contains(s.names, k) {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) > 0 {
		slices.Sort(unknown)
		return fmt.Errorf("components: %s %s: unknown parameter %q (%s takes %s)", s.class, name, unknown[0], s.class, strings.Join(s.names, ", "))
	}
	for i, d := range s.params {
		x, ok := p[s.names[i]]
		if !ok {
			if d.required {
				return fmt.Errorf("components: %s %s: missing required parameter %q", s.class, name, s.names[i])
			}
			continue
		}
		if f := v.Field(d.field); f.CanInt() {
			f.SetInt(int64(x))
		} else {
			f.SetFloat(x)
		}
	}
	return nil
}

// one is the registry entry of a class with a single schema.
func one[S any](class string, def S, ctor func(S) (Component, error)) func(Params) *schema {
	s := newSchema(class, def, ctor)
	return func(Params) *schema { return s }
}

// registry maps each class to the entry that picks its schema for a bag.
// The defaults written here are the ones a bag may leave out; every class
// but the laser has one schema.
var registry = map[string]func(Params) *schema{
	"sram":         one("sram", SRAMSpec{Banks: 1}, NewSRAM),
	"regfile":      one("regfile", regfileSpec{}, newRegfile),
	"dram":         one("dram", DRAMSpec{AccessBits: 8}, NewDRAM),
	"adc":          one("adc", ADCSpec{}, NewADC),
	"dac":          one("dac", DACSpec{}, NewDAC),
	"mzm":          one("mzm", MZMSpec{}, NewMZM),
	"mrr":          one("mrr", MRRSpec{}, NewMRR),
	"photodiode":   one("photodiode", PhotodiodeSpec{}, NewPhotodiode),
	"laser":        laserSchema,
	"star_coupler": one("star_coupler", StarCouplerSpec{}, NewStarCoupler),
	"waveguide":    one("waveguide", WaveguideSpec{}, NewWaveguide),
	"digital_mac":  one("digital_mac", DigitalMACSpec{}, NewDigitalMAC),
	"wire":         one("wire", WireSpec{LengthMM: 1}, NewWire),
}

// Build constructs a component of the named class. A parameter the class
// does not declare is an error naming the ones it does.
func Build(class, name string, p Params) (Component, error) {
	pick, ok := registry[class]
	if !ok {
		return nil, fmt.Errorf("components: unknown class %q", class)
	}
	return pick(p).build(name, p)
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
