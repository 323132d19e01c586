package components

import (
	"fmt"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// schemas lists every registered schema in class order: one per class,
// and both of the laser's.
func schemas() []*schema {
	var out []*schema
	for _, c := range Classes() {
		s := registry[c](nil)
		out = append(out, s)
		if alt := registry[c](Params{"per_mac_pj": 1}); alt != s {
			out = append(out, alt)
		}
	}
	return out
}

// baseBag sets every parameter s declares to a nonzero value that each
// constructor accepts, doubled or not.
func baseBag(s *schema) Params {
	p := Params{}
	for i, d := range s.params {
		p[s.names[i]] = 0.25
		if _, isInt := s.defaultOf(d); isInt {
			p[s.names[i]] = 4
		}
	}
	return p
}

// defaultOf returns the registry default of d and whether its field is
// an integer.
func (s *schema) defaultOf(d param) (float64, bool) {
	f := reflect.ValueOf(s.def).Field(d.field)
	if f.CanInt() {
		return float64(f.Int()), true
	}
	return f.Float(), false
}

// observed is what a built component shows the model, split into its
// static power and everything else.
func observed(t *testing.T, s *schema, p Params) (dynamic string, static float64) {
	t.Helper()
	c, err := s.build("X", p)
	if err != nil {
		t.Fatalf("%s %v: %v", s.class, p, err)
	}
	var b strings.Builder
	for _, a := range c.Actions() {
		fmt.Fprintf(&b, "%s=%v ", a, energyOf(t, c, a))
	}
	fmt.Fprintf(&b, "area=%v", c.Area())
	if x, ok := c.(interface{ Bits() int }); ok {
		fmt.Fprintf(&b, " bits=%d", x.Bits())
	}
	if x, ok := c.(interface{ SensitivityMW() float64 }); ok {
		fmt.Fprintf(&b, " sensitivity=%v", x.SensitivityMW())
	}
	if x, ok := c.(interface{ ReceivedPowerMW() float64 }); ok {
		fmt.Fprintf(&b, " received=%v", x.ReceivedPowerMW())
	}
	return b.String(), c.StaticPower()
}

// effect doubles the named parameter in s's base bag and reports whether
// the built component changed at all and whether only its static power
// did.
func effect(t *testing.T, s *schema, name string) (moves, staticOnly bool) {
	t.Helper()
	p := baseBag(s)
	dyn0, st0 := observed(t, s, p)
	p[name] *= 2
	dyn1, st1 := observed(t, s, p)
	return dyn0 != dyn1 || st0 != st1, dyn0 == dyn1 && st0 != st1
}

// TestEveryParameterMovesTheComponent: a parameter a class declares must
// change what it builds, or it is an input that changes nothing. The
// names come from the schemas, so a new inert parameter fails here.
func TestEveryParameterMovesTheComponent(t *testing.T) {
	for _, s := range schemas() {
		for _, name := range s.names {
			if moves, _ := effect(t, s, name); !moves {
				t.Errorf("%s: doubling %s changes nothing it builds", s.class, name)
			}
		}
	}
}

// TestRegistryDefaults: a name the bag leaves out takes the registry
// default, and an explicit zero stays zero.
func TestRegistryDefaults(t *testing.T) {
	transfer := func(p Params) float64 {
		w, err := Build("wire", "W", p)
		if err != nil {
			t.Fatal(err)
		}
		return energyOf(t, w, ActionTransfer)
	}
	if got := transfer(Params{"word_bits": 16}); !almostEqual(got, 0.08*16, 1e-12) {
		t.Errorf("wire at the default 1 mm = %g pJ, want %g", got, 0.08*16)
	}
	if got := transfer(Params{"word_bits": 16, "length_mm": 0}); got != 0 {
		t.Errorf("wire at an explicit 0 mm = %g pJ, want 0", got)
	}
	d, err := Build("dram", "D", Params{"pj_per_bit": 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := energyOf(t, d, ActionRead); got != 16 {
		t.Errorf("dram read at the default 8-bit access = %g pJ, want 16", got)
	}
	l, err := Build("laser", "L", Params{"wall_plug_efficiency": 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := energyOf(t, l, ActionSupply), 0.01*0.2; !almostEqual(got, want, 1e-12) {
		t.Errorf("budget laser at its defaults = %g pJ/MAC, want %g", got, want)
	}
}

// TestModelingDocParameterTable: docs/MODELING.md's "Component
// parameters" table is the schemas, rendered.
func TestModelingDocParameterTable(t *testing.T) {
	var b strings.Builder
	b.WriteString("| Class | Parameters |\n|---|---|\n")
	for _, s := range schemas() {
		var cells []string
		for i, d := range s.params {
			cell := "`" + s.names[i] + "`"
			if d.required {
				cell += " (required)"
			} else if def, _ := s.defaultOf(d); def != 0 {
				cell += " = " + strconv.FormatFloat(def, 'g', -1, 64)
			}
			if _, staticOnly := effect(t, s, s.names[i]); staticOnly {
				cell += " †"
			}
			cells = append(cells, cell)
		}
		fmt.Fprintf(&b, "| `%s` | %s |\n", s.class, strings.Join(cells, ", "))
	}
	doc, err := os.ReadFile("../../docs/MODELING.md")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(doc), b.String()) {
		t.Errorf("docs/MODELING.md's component parameter table disagrees with the schemas; want:\n%s", b.String())
	}
}
