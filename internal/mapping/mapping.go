// Package mapping represents schedules of a workload layer onto an
// architecture: per-level temporal loop factorizations with permutations,
// assignments of the architecture's rigid spatial factors to problem
// dimensions, and optional free spatial factors. Imperfect factorization is
// first-class — factors may overshoot the problem bounds, and the resulting
// padding is what produces the under-utilization effects the paper
// evaluates (Fig. 3).
package mapping

import (
	"strconv"

	"photoloop/internal/arch"
	"photoloop/internal/workload"
)

// LevelMapping is the slice of the schedule owned by one storage level.
type LevelMapping struct {
	// Temporal holds the temporal loop trip counts at this level; 1
	// means no loop over that dimension here.
	Temporal workload.Point `json:"temporal"`
	// Perm orders this level's temporal loops, outermost first. It must
	// be a permutation of all seven dimensions; dimensions with a trip
	// count of 1 are inert placeholders.
	Perm []workload.Dim `json:"-"`
	// SpatialChoice assigns each of the level's rigid spatial factors to
	// a dimension; its length must equal len(level.Spatial).
	SpatialChoice []workload.Dim `json:"-"`
	// FreeSpatial holds mapper-chosen spatial factors (all 1 unless the
	// level declares MaxFanout headroom).
	FreeSpatial workload.Point `json:"free_spatial"`
}

// CanonicalPerm returns the canonical loop order (N K C P Q R S).
func CanonicalPerm() []workload.Dim { return workload.AllDims() }

// NewLevelMapping returns an inert level mapping: unit factors, canonical
// permutation, canonical spatial choices for the given arch level.
func NewLevelMapping(l *arch.Level) LevelMapping {
	lm := LevelMapping{
		Temporal:    workload.Ones(),
		Perm:        CanonicalPerm(),
		FreeSpatial: workload.Ones(),
	}
	for i := range l.Spatial {
		lm.SpatialChoice = append(lm.SpatialChoice, l.Spatial[i].Dims[0])
	}
	return lm
}

// SpatialPoint returns this level's total spatial factors per dimension:
// the rigid factors (per the chosen assignment) times the free factors.
func (lm *LevelMapping) SpatialPoint(l *arch.Level) workload.Point {
	p := lm.FreeSpatial
	for i := range p {
		if p[i] < 1 {
			p[i] = 1
		}
	}
	for i := range l.Spatial {
		if i < len(lm.SpatialChoice) {
			p[lm.SpatialChoice[i]] *= l.Spatial[i].Count
		}
	}
	return p
}

// Loop is one temporal loop in a flattened nest.
type Loop struct {
	Dim  workload.Dim
	Trip int
}

// Mapping is a complete schedule: one LevelMapping per storage level,
// ordered outermost first (parallel to arch.Levels).
type Mapping struct {
	Levels []LevelMapping
}

// New returns an inert mapping for the architecture (all unit factors).
func New(a *arch.Arch) *Mapping {
	m := &Mapping{Levels: make([]LevelMapping, a.NumLevels())}
	for i := range m.Levels {
		m.Levels[i] = NewLevelMapping(a.Level(i))
	}
	return m
}

// Clone deep-copies the mapping.
func (m *Mapping) Clone() *Mapping {
	out := &Mapping{Levels: make([]LevelMapping, len(m.Levels))}
	for i := range m.Levels {
		lm := m.Levels[i]
		out.Levels[i] = LevelMapping{
			Temporal:    lm.Temporal,
			Perm:        append([]workload.Dim(nil), lm.Perm...),
			FreeSpatial: lm.FreeSpatial,
		}
		if lm.SpatialChoice != nil {
			out.Levels[i].SpatialChoice = append([]workload.Dim(nil), lm.SpatialChoice...)
		}
	}
	return out
}

// SpatialAt returns level i's spatial point under the architecture.
func (m *Mapping) SpatialAt(a *arch.Arch, i int) workload.Point {
	return m.Levels[i].SpatialPoint(a.Level(i))
}

// FactorsAt returns level i's combined temporal x spatial factors.
func (m *Mapping) FactorsAt(a *arch.Arch, i int) workload.Point {
	return m.Levels[i].Temporal.Mul(m.SpatialAt(a, i))
}

// PaddedBounds returns the full (possibly padded) iteration-space bounds:
// the per-dimension product of all temporal and spatial factors.
func (m *Mapping) PaddedBounds(a *arch.Arch) workload.Point {
	p := workload.Ones()
	for i := range m.Levels {
		p = p.Mul(m.FactorsAt(a, i))
	}
	return p
}

// Fingerprint returns a 64-bit FNV-1a hash identifying the schedule: equal
// mappings always hash equal, and mappings differing only in the ordering
// of inert (trip-1) permutation placeholders — which evaluate identically —
// hash equal too. The mapper uses it to skip re-evaluating schedules it has
// already scored.
func (m *Mapping) Fingerprint() uint64 {
	h := workload.NewFnv64a()
	for i := range m.Levels {
		lm := &m.Levels[i]
		h.Mix(uint64(i) | 1<<32)
		for _, d := range workload.AllDims() {
			h.Mix(uint64(lm.Temporal[d]))
			h.Mix(uint64(lm.FreeSpatial[d]))
		}
		for _, d := range lm.SpatialChoice {
			h.Mix(uint64(d))
		}
		for _, d := range lm.Perm {
			if lm.Temporal[d] > 1 {
				h.Mix(uint64(d) | 1<<16)
			}
		}
	}
	return h.Sum()
}

// String renders the mapping compactly for debugging and reports.
func (m *Mapping) String() string {
	return string(m.AppendString(nil))
}

// AppendString appends String()'s rendering to b and returns the extended
// slice — the allocation-free form the mapper's deterministic tie-break
// compares (two mappings render equal bytes iff they evaluate
// identically).
func (m *Mapping) AppendString(b []byte) []byte {
	for i := range m.Levels {
		lm := &m.Levels[i]
		b = append(b, 'L')
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, ':')
		for _, d := range lm.Perm {
			if lm.Temporal[d] > 1 {
				b = append(b, ' ')
				b = append(b, d.String()...)
				b = strconv.AppendInt(b, int64(lm.Temporal[d]), 10)
			}
		}
		wrote := false
		for _, d := range workload.AllDims() {
			if lm.FreeSpatial[d] > 1 {
				if !wrote {
					b = append(b, " |"...)
					wrote = true
				}
				b = append(b, " s"...)
				b = append(b, d.String()...)
				b = strconv.AppendInt(b, int64(lm.FreeSpatial[d]), 10)
			}
		}
		if len(lm.SpatialChoice) > 0 {
			b = append(b, " ["...)
			for k, d := range lm.SpatialChoice {
				if k > 0 {
					b = append(b, ' ')
				}
				b = append(b, d.String()...)
			}
			b = append(b, ']')
		}
		b = append(b, '\n')
	}
	return b
}
