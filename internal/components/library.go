package components

import (
	"fmt"
	"sort"
)

// Library is a named collection of component instances; an architecture
// references components by name.
type Library struct {
	byName map[string]Component
}

// NewLibrary builds an empty library.
func NewLibrary() *Library {
	return &Library{byName: make(map[string]Component)}
}

// Add installs a component, rejecting duplicates.
func (l *Library) Add(c Component) error {
	if c == nil {
		return fmt.Errorf("components: nil component")
	}
	if _, dup := l.byName[c.Name()]; dup {
		return fmt.Errorf("components: duplicate component %q", c.Name())
	}
	l.byName[c.Name()] = c
	return nil
}

// MustAdd installs a component, panicking on duplicates (builder use).
func (l *Library) MustAdd(c Component) {
	if err := l.Add(c); err != nil {
		panic(err)
	}
}

// Get returns the named component.
func (l *Library) Get(name string) (Component, error) {
	c, ok := l.byName[name]
	if !ok {
		return nil, fmt.Errorf("components: unknown component %q", name)
	}
	return c, nil
}

// Names returns the component names, sorted.
func (l *Library) Names() []string {
	out := make([]string, 0, len(l.byName))
	for n := range l.byName {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
