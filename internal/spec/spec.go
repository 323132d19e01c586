// Package spec defines the JSON interchange format for architectures and
// mappings, giving the tool a CiMLoop-like specification-driven interface:
// users describe components, a level hierarchy with domains and converter
// chains, and (optionally) a mapping, without writing Go.
package spec

import (
	"encoding/json"
	"fmt"
	"io"

	"photoloop/internal/arch"
	"photoloop/internal/components"
	"photoloop/internal/mapping"
	"photoloop/internal/workload"
)

// ComponentSpec instantiates one component from the class registry.
type ComponentSpec struct {
	Class  string             `json:"class"`
	Name   string             `json:"name"`
	Params map[string]float64 `json:"params,omitempty"`
}

// ActionRefSpec names a component action on a converter chain.
type ActionRefSpec struct {
	Component   string  `json:"component"`
	Action      string  `json:"action"`
	PerWord     float64 `json:"per_word,omitempty"`
	PerDistinct bool    `json:"per_distinct,omitempty"`
}

// SpatialFactorSpec is a rigid fan-out factor.
type SpatialFactorSpec struct {
	Count int      `json:"count"`
	Dims  []string `json:"dims"`
}

// LevelSpec is one storage level.
type LevelSpec struct {
	Name                   string                     `json:"name"`
	Domain                 string                     `json:"domain"`
	Keeps                  []string                   `json:"keeps"`
	CapacityBits           int64                      `json:"capacity_bits,omitempty"`
	WordBits               int                        `json:"word_bits,omitempty"`
	BandwidthWordsPerCycle float64                    `json:"bandwidth_words_per_cycle,omitempty"`
	AccessComponent        string                     `json:"access_component,omitempty"`
	Streaming              bool                       `json:"streaming,omitempty"`
	MaxTemporalProduct     int                        `json:"max_temporal_product,omitempty"`
	Spatial                []SpatialFactorSpec        `json:"spatial,omitempty"`
	MaxFanout              int                        `json:"max_fanout,omitempty"`
	FreeSpatialDims        []string                   `json:"free_spatial_dims,omitempty"`
	NoMulticast            bool                       `json:"no_multicast,omitempty"`
	NoSpatialReduce        bool                       `json:"no_spatial_reduce,omitempty"`
	InputOverlapSharing    bool                       `json:"input_overlap_sharing,omitempty"`
	FillVia                map[string][]ActionRefSpec `json:"fill_via,omitempty"`
	UpdateVia              map[string][]ActionRefSpec `json:"update_via,omitempty"`
	DrainVia               map[string][]ActionRefSpec `json:"drain_via,omitempty"`
}

// ComputeSpec is the compute array.
type ComputeSpec struct {
	Name   string          `json:"name"`
	Domain string          `json:"domain"`
	PerMAC []ActionRefSpec `json:"per_mac,omitempty"`
}

// ArchSpec is a complete architecture document.
type ArchSpec struct {
	Name            string          `json:"name"`
	ClockGHz        float64         `json:"clock_ghz"`
	DefaultWordBits int             `json:"default_word_bits"`
	Components      []ComponentSpec `json:"components"`
	Levels          []LevelSpec     `json:"levels"`
	Compute         ComputeSpec     `json:"compute"`
}

// ParseArchSpec decodes an architecture document without building it:
// callers that re-marshal, mutate (sweep variants) or embed the document
// (eval requests) keep the spec form.
func ParseArchSpec(r io.Reader) (*ArchSpec, error) {
	var s ArchSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("spec: decoding architecture: %w", err)
	}
	return &s, nil
}

// Build constructs the architecture described by the spec. Errors name
// the offending JSON path (e.g. "levels[2].spatial[0]").
func (s *ArchSpec) Build() (*arch.Arch, error) {
	lib := components.NewLibrary()
	for i, cs := range s.Components {
		c, err := components.Build(cs.Class, cs.Name, cs.Params)
		if err != nil {
			return nil, fmt.Errorf("spec: components[%d] (%s): %w", i, cs.Name, err)
		}
		if err := lib.Add(c); err != nil {
			return nil, fmt.Errorf("spec: components[%d]: %w", i, err)
		}
	}
	a := &arch.Arch{
		Name:            s.Name,
		Lib:             lib,
		ClockGHz:        s.ClockGHz,
		DefaultWordBits: s.DefaultWordBits,
	}
	for i := range s.Levels {
		ls := &s.Levels[i]
		lvl, err := ls.build(fmt.Sprintf("levels[%d] (%s)", i, ls.Name))
		if err != nil {
			return nil, err
		}
		a.Levels = append(a.Levels, *lvl)
	}
	dom, err := arch.ParseDomain(orDefault(s.Compute.Domain, "DE"))
	if err != nil {
		return nil, fmt.Errorf("spec: compute.domain: %w", err)
	}
	refs, err := buildRefs(s.Compute.PerMAC)
	if err != nil {
		return nil, fmt.Errorf("spec: compute.per_mac: %w", err)
	}
	a.Compute = arch.Compute{Name: s.Compute.Name, Domain: dom, PerMAC: refs}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return a, nil
}

// build constructs one level; path is the level's JSON path for error
// messages.
func (ls *LevelSpec) build(path string) (*arch.Level, error) {
	dom, err := arch.ParseDomain(orDefault(ls.Domain, "DE"))
	if err != nil {
		return nil, fmt.Errorf("spec: %s.domain: %w", path, err)
	}
	keeps, err := parseTensorSet(ls.Keeps)
	if err != nil {
		return nil, fmt.Errorf("spec: %s.keeps: %w", path, err)
	}
	lvl := &arch.Level{
		Name:                   ls.Name,
		Domain:                 dom,
		Keeps:                  keeps,
		CapacityBits:           ls.CapacityBits,
		WordBits:               ls.WordBits,
		BandwidthWordsPerCycle: ls.BandwidthWordsPerCycle,
		AccessComponent:        ls.AccessComponent,
		Streaming:              ls.Streaming,
		MaxTemporalProduct:     ls.MaxTemporalProduct,
		MaxFanout:              ls.MaxFanout,
		NoMulticast:            ls.NoMulticast,
		NoSpatialReduce:        ls.NoSpatialReduce,
		InputOverlapSharing:    ls.InputOverlapSharing,
	}
	for i, fs := range ls.Spatial {
		dims, err := parseDims(fs.Dims)
		if err != nil {
			return nil, fmt.Errorf("spec: %s.spatial[%d]: %w", path, i, err)
		}
		lvl.Spatial = append(lvl.Spatial, arch.SpatialFactor{Count: fs.Count, Dims: dims})
	}
	if len(ls.FreeSpatialDims) > 0 {
		dims, err := parseDims(ls.FreeSpatialDims)
		if err != nil {
			return nil, fmt.Errorf("spec: %s.free_spatial_dims: %w", path, err)
		}
		lvl.FreeSpatialDims = dims
	}
	if lvl.FillVia, err = buildVia(ls.FillVia); err != nil {
		return nil, fmt.Errorf("spec: %s.fill_via: %w", path, err)
	}
	if lvl.UpdateVia, err = buildVia(ls.UpdateVia); err != nil {
		return nil, fmt.Errorf("spec: %s.update_via: %w", path, err)
	}
	if lvl.DrainVia, err = buildVia(ls.DrainVia); err != nil {
		return nil, fmt.Errorf("spec: %s.drain_via: %w", path, err)
	}
	return lvl, nil
}

func buildVia(m map[string][]ActionRefSpec) (map[workload.Tensor][]arch.ActionRef, error) {
	if len(m) == 0 {
		return nil, nil
	}
	out := make(map[workload.Tensor][]arch.ActionRef, len(m))
	for name, refs := range m {
		t, err := workload.ParseTensor(name)
		if err != nil {
			return nil, err
		}
		built, err := buildRefs(refs)
		if err != nil {
			return nil, err
		}
		out[t] = built
	}
	return out, nil
}

func buildRefs(specs []ActionRefSpec) ([]arch.ActionRef, error) {
	var out []arch.ActionRef
	for _, r := range specs {
		if r.Component == "" || r.Action == "" {
			return nil, fmt.Errorf("spec: action ref needs component and action")
		}
		out = append(out, arch.ActionRef{
			Component:   r.Component,
			Action:      r.Action,
			PerWord:     r.PerWord,
			PerDistinct: r.PerDistinct,
		})
	}
	return out, nil
}

func parseDims(names []string) ([]workload.Dim, error) {
	var out []workload.Dim
	for _, n := range names {
		d, err := workload.ParseDim(n)
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

func parseTensorSet(names []string) (workload.TensorSet, error) {
	var s workload.TensorSet
	for _, n := range names {
		t, err := workload.ParseTensor(n)
		if err != nil {
			return 0, err
		}
		s = s.With(t)
	}
	return s, nil
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

// MappingLevelSpec is one level of a mapping document.
type MappingLevelSpec struct {
	Temporal      map[string]int `json:"temporal,omitempty"`
	Perm          []string       `json:"perm,omitempty"`
	SpatialChoice []string       `json:"spatial_choice,omitempty"`
	FreeSpatial   map[string]int `json:"free_spatial,omitempty"`
}

// MappingSpec is a mapping document; levels are outermost first and must
// match the architecture's level count.
type MappingSpec struct {
	Levels []MappingLevelSpec `json:"levels"`
}

// ParseMappingSpec decodes a mapping document without building it.
func ParseMappingSpec(r io.Reader) (*MappingSpec, error) {
	var s MappingSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("spec: decoding mapping: %w", err)
	}
	return &s, nil
}

// Build constructs the mapping described by the spec.
func (s *MappingSpec) Build(a *arch.Arch) (*mapping.Mapping, error) {
	if len(s.Levels) != a.NumLevels() {
		return nil, fmt.Errorf("spec: mapping has %d levels, arch has %d", len(s.Levels), a.NumLevels())
	}
	m := mapping.New(a)
	for i, ls := range s.Levels {
		for name, f := range ls.Temporal {
			d, err := workload.ParseDim(name)
			if err != nil {
				return nil, fmt.Errorf("spec: levels[%d].temporal: %w", i, err)
			}
			m.Levels[i].Temporal[d] = f
		}
		if len(ls.Perm) > 0 {
			dims, err := parseDims(ls.Perm)
			if err != nil {
				return nil, fmt.Errorf("spec: levels[%d].perm: %w", i, err)
			}
			m.Levels[i].Perm = dims
		}
		if len(ls.SpatialChoice) > 0 {
			dims, err := parseDims(ls.SpatialChoice)
			if err != nil {
				return nil, fmt.Errorf("spec: levels[%d].spatial_choice: %w", i, err)
			}
			m.Levels[i].SpatialChoice = dims
		}
		for name, f := range ls.FreeSpatial {
			d, err := workload.ParseDim(name)
			if err != nil {
				return nil, fmt.Errorf("spec: levels[%d].free_spatial: %w", i, err)
			}
			m.Levels[i].FreeSpatial[d] = f
		}
	}
	return m, nil
}
