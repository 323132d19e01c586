package sweep

import (
	"sync"

	"photoloop/internal/albireo"
	"photoloop/internal/mapper"
	"photoloop/internal/mapping"
	"photoloop/internal/workload"
)

// maxSeedPrints caps the process-wide seed-print memo. An entry is one
// (arch, layer shape)'s canonical-seed fingerprints, about 300 bytes.
// study-cold's working set (every Albireo preset x zoo layer shape) is
// 360 entries and serve-mixed's 82, so the cap (about 0.6 MB) holds
// both with room for sweeps; past it the memo resets rather than growing
// without bound in a long-lived serve.
const maxSeedPrints = 2048

// seedKey identifies one canonical seed set: the session architecture's
// fingerprint and the layer's shape fingerprint, which together fix the
// canonical mappings.
type seedKey struct{ arch, shape uint64 }

// printMemo maps seed keys to seed fingerprints, never to the mappings:
// a seed set is about 42 KB of mappings, but only its fingerprints key a
// cache lookup. Inserting past maxSeedPrints resets it (an epoch flush).
type printMemo struct {
	mu sync.Mutex
	m  map[seedKey][]uint64
}

func (pm *printMemo) get(k seedKey) ([]uint64, bool) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	prints, ok := pm.m[k]
	return prints, ok
}

func (pm *printMemo) put(k seedKey, prints []uint64) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	if len(pm.m) >= maxSeedPrints {
		pm.m = make(map[seedKey][]uint64, maxSeedPrints)
	}
	pm.m[k] = prints
}

var seedPrints = &printMemo{m: map[seedKey][]uint64{}}

// canonicalSeeds returns the canonical Albireo seeds of layer (whose shape
// fingerprint is shape) on sess's architecture. Once a key's prints are
// memoized, a cache hit hashes them and the mappings are built only if
// the search actually runs.
func canonicalSeeds(sess *mapper.Session, layer *workload.Layer, shape uint64) mapper.Seeds {
	a := sess.Engine().Arch()
	k := seedKey{sess.Fingerprint(), shape}
	if prints, ok := seedPrints.get(k); ok {
		return mapper.LazySeeds(prints, func() []*mapping.Mapping {
			return albireo.CanonicalMappings(a, layer)
		})
	}
	seeds := mapper.SeedList(albireo.CanonicalMappings(a, layer))
	seedPrints.put(k, seeds.Prints())
	return seeds
}
