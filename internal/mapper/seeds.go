package mapper

import (
	"errors"
	"fmt"

	"photoloop/internal/mapping"
)

// Seeds are the mappings a search evaluates before random exploration
// (an architecture's canonical schedules, typically). A Seeds value holds
// the seeds' fingerprints, which are all a cache lookup needs to key the
// search, and a builder that produces the mappings themselves only when
// a search actually runs — so a cache hit never constructs a seed. The
// zero value means no seeds.
type Seeds struct {
	prints []uint64
	build  func() []*mapping.Mapping
}

// SeedList returns seeds for a fixed list of mappings, fingerprinted
// once here. The search tries them in place and never mutates them.
func SeedList(ms []*mapping.Mapping) Seeds {
	prints := make([]uint64, len(ms))
	for i, m := range ms {
		prints[i] = m.Fingerprint()
	}
	return Seeds{prints: prints, build: func() []*mapping.Mapping { return ms }}
}

// LazySeeds returns seeds whose fingerprints are already known: build is
// called once per search that runs and must return mappings with exactly
// these fingerprints, in order, or the search fails. prints is retained,
// not copied.
func LazySeeds(prints []uint64, build func() []*mapping.Mapping) Seeds {
	return Seeds{prints: prints, build: build}
}

// Prints returns the seeds' fingerprints in order. The slice is shared:
// callers must not modify it.
func (s Seeds) Prints() []uint64 { return s.prints }

// errSeedMismatch marks a search whose built seeds disagree with the
// fingerprints its cache key was formed from.
var errSeedMismatch = errors.New("mapper: built seeds do not match their fingerprints")

// mappings builds the seeds and checks them against their fingerprints:
// a cache key must describe what was searched.
func (s Seeds) mappings() ([]*mapping.Mapping, error) {
	var ms []*mapping.Mapping
	if s.build != nil {
		ms = s.build()
	}
	if len(ms) != len(s.prints) {
		return nil, fmt.Errorf("%w: built %d, want %d", errSeedMismatch, len(ms), len(s.prints))
	}
	for i, m := range ms {
		if m.Fingerprint() != s.prints[i] {
			return nil, fmt.Errorf("%w: seed %d", errSeedMismatch, i)
		}
	}
	return ms, nil
}
