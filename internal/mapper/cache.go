package mapper

import (
	"errors"
	"sync"

	"photoloop/internal/workload"
)

// Key identifies one deduplicatable search: the architecture's
// fingerprint, the layer's shape fingerprint (name excluded — equal shapes
// search identically), and the fingerprint of every option that can change
// the outcome (objective, budget, seed, workers, eval flags, seed
// mappings). Keys are content addresses: equal keys mean bit-identical
// search outcomes, which is what lets a Persister serve results across
// processes and restarts.
type Key struct {
	// Arch is arch.Fingerprint of the searched architecture.
	Arch uint64
	// Layer is the layer's ShapeFingerprint (name excluded).
	Layer uint64
	// Opts fingerprints every outcome-changing search option.
	Opts uint64
}

// Persister is a durable second tier behind a Cache: Load serves a
// previously persisted search result and Store writes a freshly computed
// one through. Implementations must return results bit-identical to the
// original computation (the store package's codec round-trips every field
// exactly) and must be safe for concurrent use. A Load that cannot prove
// integrity of a record must miss, never guess — the cache recomputes on
// a miss, so corruption costs time, not correctness.
type Persister interface {
	// Load returns the persisted Best for the key, or false. The returned
	// value is owned by the cache, which shares it read-only with every
	// caller of the key.
	Load(k Key) (*Best, bool)
	// Store persists a computed Best. Errors are reported through the
	// cache's tier stats; persistence is best-effort and never fails the
	// search itself.
	Store(k Key, b *Best) error
}

// Cache deduplicates identical (architecture, layer shape, options)
// searches across callers: design-space sweeps evaluate many variants whose
// networks repeat layer shapes (all of ResNet's basic blocks, VGG's paired
// convolutions), and with a shared Cache each distinct search runs exactly
// once. Because a search is deterministic for a fixed (Seed, Workers) pair,
// serving a cached result is bit-identical to re-running the search.
//
// A Cache is safe for concurrent use; concurrent requests for the same key
// block on a single computation rather than duplicating it. An unbounded
// Cache (NewCache) suits sweep-scoped use, where the grid bounds the key
// space; long-lived services should bound it with NewCacheLimit.
//
// SetPersister adds a durable second tier: lookups missing in memory
// consult the persister before computing, and computed results are written
// through — so a restarted process (or a different one sharing the store)
// warm-starts from every search any prior run completed.
type Cache struct {
	mu    sync.Mutex
	m     map[Key]*cacheEntry
	limit int
	disk  Persister

	hits      int64
	diskHits  int64
	misses    int64
	diskFails int64
}

// cacheEntry is one key's search: done closes once best or err is set.
type cacheEntry struct {
	done chan struct{}
	best *Best
	err  error
}

// NewCache returns an empty, unbounded search-result cache.
func NewCache() *Cache {
	return &Cache{m: make(map[Key]*cacheEntry)}
}

// NewCacheLimit returns a cache holding at most limit entries: inserting
// past the limit flushes the cache and starts fresh (an epoch flush —
// correctness is unaffected, flushed searches are simply recomputed).
// A limit <= 0 means unbounded.
func NewCacheLimit(limit int) *Cache {
	c := NewCache()
	c.limit = limit
	return c
}

// SetPersister installs (or, with nil, removes) the cache's durable
// second tier. Install it before sharing the cache — the setter is not
// synchronized with in-flight searches.
func (c *Cache) SetPersister(p Persister) { c.disk = p }

// Stats returns how many searches were served from the cache (memory and
// disk tiers together) versus computed. A request that joins an in-flight
// computation counts as a hit.
func (c *Cache) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits + c.diskHits, c.misses
}

// TierStats breaks the cache's traffic down by tier.
type TierStats struct {
	// Hits counts lookups served from memory (including joins of
	// in-flight computations).
	Hits int64 `json:"hits"`
	// DiskHits counts lookups served by the persister.
	DiskHits int64 `json:"disk_hits"`
	// Misses counts searches actually computed.
	Misses int64 `json:"misses"`
	// DiskFails counts write-through attempts the persister rejected
	// (persistence is best-effort; the computed result was still served).
	DiskFails int64 `json:"disk_fails,omitempty"`
}

// TierStats returns the per-tier counters.
func (c *Cache) TierStats() TierStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return TierStats{Hits: c.hits, DiskHits: c.diskHits, Misses: c.misses, DiskFails: c.diskFails}
}

// Keys returns the cache keys a SearchObjectives call of the layer under
// opts (defaults applied, opts.Objective ignored) looks up, one per
// objective in objs — the content addresses a Persister serves the
// call's results under. It is the one key derivation: Cache.search
// calls it.
func (s *Session) Keys(l *workload.Layer, opts Options, objs []Objective) []Key {
	o := opts.withDefaults()
	keys := make([]Key, len(objs))
	shape := l.ShapeFingerprint()
	for i, obj := range objs {
		o.Objective = obj
		keys[i] = Key{Arch: s.fp, Layer: shape, Opts: o.fingerprint()}
	}
	return keys
}

// search runs (or joins, or reuses) the deduplicated search of the layer
// for each objective, one key per objective (Session.Keys). The options
// must already have defaults applied, as the search runs on them. Hits and
// misses are counted per key exactly as separate lookups would count
// them.
func (c *Cache) search(s *Session, l *workload.Layer, o Options, objs []Objective) ([]*Best, error) {
	keys := s.Keys(l, o, objs)
	entries := make([]*cacheEntry, len(objs))
	var claimed []int
	c.mu.Lock()
	for i, key := range keys {
		e, ok := c.m[key]
		if ok {
			c.hits++
		} else {
			c.misses++
			if c.limit > 0 && len(c.m) >= c.limit {
				c.m = make(map[Key]*cacheEntry)
			}
			e = &cacheEntry{done: make(chan struct{})}
			c.m[key] = e
			claimed = append(claimed, i)
		}
		entries[i] = e
	}
	c.mu.Unlock()

	// Fill every claimed entry — from the disk tier, else by one joint
	// search over the rest — before waiting on any entry another caller
	// is filling.
	var compute []int
	var computeObjs []Objective
	for _, i := range claimed {
		if c.disk != nil {
			if b, ok := c.disk.Load(keys[i]); ok {
				entries[i].best = b
				// The claim was provisionally counted as a miss; the disk
				// tier absorbed the computation, so move the count.
				c.mu.Lock()
				c.misses--
				c.diskHits++
				c.mu.Unlock()
				continue
			}
		}
		compute = append(compute, i)
		computeObjs = append(computeObjs, objs[i])
	}
	if len(compute) > 0 {
		bests, err := s.search(l, o, computeObjs)
		for k, i := range compute {
			if entries[i].err = err; err == nil {
				entries[i].best = bests[k]
				if c.disk != nil && c.disk.Store(keys[i], bests[k]) != nil {
					c.mu.Lock()
					c.diskFails++
					c.mu.Unlock()
				}
			}
		}
	}
	for _, i := range claimed {
		close(entries[i].done)
	}

	bests := make([]*Best, len(objs))
	var err error
	for i, e := range entries {
		<-e.done
		if e.err == nil {
			bests[i] = e.best
			continue
		}
		if errors.Is(e.err, errSeedMismatch) {
			// The caller's seeds failed, not the keyed search: forget
			// the entry so a caller whose seeds match computes it.
			c.mu.Lock()
			if c.m[keys[i]] == e {
				delete(c.m, keys[i])
			}
			c.mu.Unlock()
		}
		if err == nil {
			err = e.err
		}
	}
	if err != nil {
		return nil, err
	}
	return bests, nil
}

// CloneFor deep-copies a best for a caller evaluating a same-shaped layer
// under a different name: the mapping and counts are shape properties, only
// the result's layer label differs. Session.Search uses it to hand its
// caller an owned copy of a cached best.
func (b *Best) CloneFor(layer string) *Best {
	out := &Best{
		Mapping:     b.Mapping.Clone(),
		Result:      b.Result.Clone(),
		Evaluations: b.Evaluations,
		Stats:       b.Stats,
	}
	out.Result.Layer = layer
	return out
}

// fingerprint hashes every option that can alter a search outcome. The
// Cache pointer itself is deliberately excluded.
func (o *Options) fingerprint() uint64 {
	h := workload.NewFnv64a()
	h.Mix(uint64(o.Objective))
	h.Mix(uint64(o.Budget))
	h.Mix(uint64(o.Seed))
	h.Mix(uint64(o.Workers))
	flags := uint64(0)
	if o.Eval.ChargeStatic {
		flags |= 1
	}
	if o.Eval.SkipValidate {
		flags |= 2
	}
	if o.Eval.FullLedger {
		flags |= 4
	}
	h.Mix(flags)
	h.Mix(uint64(len(o.Seeds.prints)))
	for _, p := range o.Seeds.prints {
		h.Mix(p)
	}
	// Warm starts change which candidates join the pool, so they are part
	// of the search identity.
	h.Mix(uint64(len(o.WarmStarts)))
	for _, w := range o.WarmStarts {
		if w != nil {
			h.Mix(w.Fingerprint())
		}
	}
	return h.Sum()
}
