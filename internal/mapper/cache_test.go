package mapper

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"photoloop/internal/mapping"
	"photoloop/internal/workload"
)

func TestCacheHitIsBitIdentical(t *testing.T) {
	a := testArch(t, 1<<20)
	s, err := NewSession(a)
	if err != nil {
		t.Fatal(err)
	}
	l := workload.NewConv("conv", 1, 8, 8, 8, 8, 3, 3, 1, 1)
	opts := Options{Budget: 150, Seed: 1, Workers: 2}

	plain, err := s.Search(&l, opts)
	if err != nil {
		t.Fatal(err)
	}

	cache := NewCache()
	opts.Cache = cache
	first, err := s.Search(&l, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Same shape under another name: served from cache, relabeled.
	renamed := l
	renamed.Name = "conv_again"
	second, err := s.Search(&renamed, opts)
	if err != nil {
		t.Fatal(err)
	}

	if hits, misses := cache.Stats(); hits != 1 || misses != 1 {
		t.Errorf("stats = %d hits %d misses, want 1/1", hits, misses)
	}
	for _, got := range []*Best{first, second} {
		if got.Result.TotalPJ != plain.Result.TotalPJ ||
			got.Result.Cycles != plain.Result.Cycles ||
			got.Evaluations != plain.Evaluations {
			t.Errorf("cached search diverged: %+v vs %+v", got.Result, plain.Result)
		}
		if got.Mapping.String() != plain.Mapping.String() {
			t.Errorf("cached mapping differs:\n%s\nvs\n%s", got.Mapping, plain.Mapping)
		}
	}
	if second.Result.Layer != "conv_again" {
		t.Errorf("cached result not relabeled: %q", second.Result.Layer)
	}
	if second.Mapping == first.Mapping || second.Result == first.Result {
		t.Error("cache returned aliased pointers")
	}
}

func TestCacheKeysDiscriminate(t *testing.T) {
	a := testArch(t, 1<<20)
	s, err := NewSession(a)
	if err != nil {
		t.Fatal(err)
	}
	l := workload.NewConv("conv", 1, 8, 8, 8, 8, 3, 3, 1, 1)
	cache := NewCache()

	run := func(opts Options, layer workload.Layer) {
		opts.Cache = cache
		if _, err := s.Search(&layer, opts); err != nil {
			t.Fatal(err)
		}
	}
	run(Options{Budget: 100, Seed: 1}, l)
	run(Options{Budget: 100, Seed: 2}, l)                         // seed differs
	run(Options{Budget: 120, Seed: 1}, l)                         // budget differs
	run(Options{Budget: 100, Seed: 1, Objective: MinDelay}, l)    // objective differs
	other := workload.NewConv("conv", 1, 16, 8, 8, 8, 3, 3, 1, 1) // shape differs
	run(Options{Budget: 100, Seed: 1}, other)
	if hits, misses := cache.Stats(); hits != 0 || misses != 5 {
		t.Errorf("stats = %d hits %d misses, want 0/5", hits, misses)
	}

	// A different architecture must not collide even for the same layer
	// and options.
	b := testArch(t, 1<<19)
	sb, err := NewSession(b)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Budget: 100, Seed: 1, Cache: cache}
	if _, err := sb.Search(&l, opts); err != nil {
		t.Fatal(err)
	}
	if hits, _ := cache.Stats(); hits != 0 {
		t.Errorf("cross-arch collision: %d hits", hits)
	}
}

func TestCacheSeedMappingsKeyed(t *testing.T) {
	a := testArch(t, 1<<20)
	s, err := NewSession(a)
	if err != nil {
		t.Fatal(err)
	}
	l := workload.NewConv("conv", 1, 8, 8, 8, 8, 3, 3, 1, 1)
	cache := NewCache()
	base := Options{Budget: 100, Seed: 1, Cache: cache}
	if _, err := s.Search(&l, base); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Search(&l, base); err != nil { // identical: hit
		t.Fatal(err)
	}
	// Different seed mappings must key differently: searches starting
	// from different seeds can end elsewhere.
	seeded := base
	seed := mapping.New(a)
	seed.Levels[0].Temporal[workload.DimK] = 8
	seeded.Seeds = SeedList([]*mapping.Mapping{seed})
	if _, err := s.Search(&l, seeded); err != nil {
		t.Fatal(err)
	}
	if hits, misses := cache.Stats(); hits != 1 || misses != 2 {
		t.Fatalf("stats = %d hits %d misses, want 1/2", hits, misses)
	}
}

// TestCacheLimitFlushes: a bounded cache epoch-flushes past its limit
// instead of growing forever (the server's process-wide cache).
func TestCacheLimitFlushes(t *testing.T) {
	a := testArch(t, 1<<20)
	s, err := NewSession(a)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewCacheLimit(2)
	l := workload.NewConv("conv", 1, 8, 8, 8, 8, 3, 3, 1, 1)
	for _, seed := range []int64{1, 2, 3} { // three distinct keys
		if _, err := s.Search(&l, Options{Budget: 60, Seed: seed, Cache: cache}); err != nil {
			t.Fatal(err)
		}
	}
	if len(cache.m) > 2 {
		t.Errorf("cache holds %d entries past limit 2", len(cache.m))
	}
	// The first key was flushed: re-searching it misses again but stays
	// bit-identical.
	before, _ := cache.Stats()
	if _, err := s.Search(&l, Options{Budget: 60, Seed: 1, Cache: cache}); err != nil {
		t.Fatal(err)
	}
	if after, _ := cache.Stats(); after != before {
		t.Error("flushed entry unexpectedly hit")
	}
}

func TestCacheConcurrentSingleComputation(t *testing.T) {
	a := testArch(t, 1<<20)
	s, err := NewSession(a)
	if err != nil {
		t.Fatal(err)
	}
	l := workload.NewConv("conv", 1, 8, 8, 8, 8, 3, 3, 1, 1)
	cache := NewCache()
	opts := Options{Budget: 150, Seed: 1, Workers: 2, Cache: cache}

	const callers = 8
	results := make([]*Best, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b, err := s.Search(&l, opts)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = b
		}(i)
	}
	wg.Wait()
	hits, misses := cache.Stats()
	if misses != 1 || hits != callers-1 {
		t.Errorf("stats = %d hits %d misses, want %d/1", hits, misses, callers-1)
	}
	for i := 1; i < callers; i++ {
		if results[i] == nil || results[0] == nil {
			t.Fatal("missing result")
		}
		if !reflect.DeepEqual(results[i].Result, results[0].Result) {
			t.Errorf("caller %d diverged", i)
		}
	}
}

// memPersister is an in-memory Persister counting stores per key.
type memPersister struct {
	mu     sync.Mutex
	m      map[Key]*Best
	stores map[Key]int
}

func newMemPersister() *memPersister {
	return &memPersister{m: map[Key]*Best{}, stores: map[Key]int{}}
}

func (p *memPersister) Load(k Key) (*Best, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	b, ok := p.m[k]
	return b, ok
}

func (p *memPersister) Store(k Key, b *Best) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.m[k] = b
	p.stores[k]++
	return nil
}

// TestCacheGroupMatchesSingleLookups: a grouped lookup counts hits and
// misses per key exactly as the same lookups made one by one, stores
// each computed key once, and serves the same bests.
func TestCacheGroupMatchesSingleLookups(t *testing.T) {
	s, err := NewSession(photonicTestArch(t))
	if err != nil {
		t.Fatal(err)
	}
	l := workload.NewConv("conv", 1, 16, 8, 8, 8, 3, 3, 1, 1)
	groups := [][]Objective{{MinEnergy, MinDelay, MinEDP}, {MinDelay, MinEnergy}, {MinEDP, MinEDP}, {MinEnergy}}

	grouped, single := NewCache(), NewCache()
	gp, sp := newMemPersister(), newMemPersister()
	grouped.SetPersister(gp)
	single.SetPersister(sp)
	for _, objs := range groups {
		got, err := s.SearchObjectives(&l, Options{Budget: 150, Seed: 2, Workers: 2, Cache: grouped}, objs)
		if err != nil {
			t.Fatal(err)
		}
		for i, obj := range objs {
			want, err := s.Search(&l, Options{Objective: obj, Budget: 150, Seed: 2, Workers: 2, Cache: single})
			if err != nil {
				t.Fatal(err)
			}
			sameBest(t, fmt.Sprintf("%v[%d]", objs, i), got[i], want)
		}
	}
	if g, w := grouped.TierStats(), single.TierStats(); g != w || g.Misses != 3 {
		t.Fatalf("grouped stats %+v, single %+v (want 3 misses)", g, w)
	}
	if len(gp.stores) != 3 {
		t.Fatalf("%d keys stored, want 3", len(gp.stores))
	}
	for k, n := range gp.stores {
		if n != 1 || sp.stores[k] != 1 {
			t.Fatalf("key %+v stored %d times grouped, %d single", k, n, sp.stores[k])
		}
	}
}

// TestCacheOverlappingGroupsConcurrent: groups that share keys and claim
// them in different orders finish (no group waits on one that waits on
// it) and compute every key once.
func TestCacheOverlappingGroupsConcurrent(t *testing.T) {
	s, err := NewSession(testArch(t, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	l := workload.NewConv("conv", 1, 16, 8, 8, 8, 3, 3, 1, 1)
	cache := NewCache()
	p := newMemPersister()
	cache.SetPersister(p)
	groups := [][]Objective{
		{MinEnergy, MinDelay}, {MinDelay, MinEDP}, {MinEDP, MinEnergy},
		{MinEnergy, MinDelay, MinEDP}, {MinEDP, MinDelay, MinEnergy}, {MinDelay},
	}
	const rounds = 4
	lookups := 0
	start := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < rounds; r++ {
		for _, objs := range groups {
			lookups += len(objs)
			wg.Add(1)
			go func(objs []Objective) {
				defer wg.Done()
				<-start // claim together, so groups overlap in flight
				if _, err := s.SearchObjectives(&l, Options{Budget: 2000, Seed: 1, Workers: 1, Cache: cache}, objs); err != nil {
					t.Error(err)
				}
			}(objs)
		}
	}
	close(start)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("overlapping groups deadlocked")
	}
	if st := cache.TierStats(); st.Misses != 3 || st.Hits != int64(lookups-3) {
		t.Fatalf("stats %+v, want 3 misses and %d hits", st, lookups-3)
	}
	for k, n := range p.stores {
		if n != 1 {
			t.Fatalf("key %+v computed %d times", k, n)
		}
	}
}

// TestCacheGroupDiskHits: keys the disk tier holds are served from it
// inside a group; only the rest are searched (jointly) and stored.
func TestCacheGroupDiskHits(t *testing.T) {
	s, err := NewSession(photonicTestArch(t))
	if err != nil {
		t.Fatal(err)
	}
	l := workload.NewConv("conv", 1, 16, 8, 8, 8, 3, 3, 1, 1)
	opts := Options{Budget: 150, Seed: 3, Workers: 2}
	p := newMemPersister()
	warm := NewCache()
	warm.SetPersister(p)
	if _, err := s.SearchObjectives(&l, withCache(opts, warm), []Objective{MinEnergy, MinEDP}); err != nil {
		t.Fatal(err)
	}

	cold := NewCache()
	cold.SetPersister(p)
	objs := []Objective{MinEnergy, MinDelay, MinEDP}
	got, err := s.SearchObjectives(&l, withCache(opts, cold), objs)
	if err != nil {
		t.Fatal(err)
	}
	if st := cold.TierStats(); st != (TierStats{DiskHits: 2, Misses: 1}) {
		t.Fatalf("stats %+v, want 2 disk hits and 1 miss", st)
	}
	if len(p.stores) != 3 {
		t.Fatalf("%d keys stored, want 3", len(p.stores))
	}
	for k, n := range p.stores {
		if n != 1 {
			t.Fatalf("key %+v stored %d times", k, n)
		}
	}
	for i, obj := range objs {
		one := opts
		one.Objective = obj
		want, err := s.Search(&l, one)
		if err != nil {
			t.Fatal(err)
		}
		sameBest(t, obj.String(), got[i], want)
	}
}

// TestCacheGroupSeedMismatchForgetsClaims: a group whose seeds fail to
// build forgets every key it claimed, so a caller with matching seeds
// computes them.
func TestCacheGroupSeedMismatchForgetsClaims(t *testing.T) {
	a := testArch(t, 1<<20)
	s, err := NewSession(a)
	if err != nil {
		t.Fatal(err)
	}
	l := workload.NewConv("conv", 1, 16, 8, 8, 8, 3, 3, 1, 1)
	seed := mapping.New(a)
	seed.Levels[0].Temporal[workload.DimK] = 16
	prints := []uint64{seed.Fingerprint()}
	cache := NewCache()
	objs := []Objective{MinEnergy, MinDelay, MinEDP}
	bad := Options{Budget: 100, Seed: 1, Cache: cache,
		Seeds: LazySeeds(prints, func() []*mapping.Mapping { return []*mapping.Mapping{mapping.New(a)} })}
	if _, err := s.SearchObjectives(&l, bad, objs); !errors.Is(err, errSeedMismatch) {
		t.Fatalf("err = %v, want a seed mismatch", err)
	}
	if len(cache.m) != 0 {
		t.Fatalf("%d claimed keys kept after a seed mismatch", len(cache.m))
	}
	good := bad
	good.Seeds = SeedList([]*mapping.Mapping{seed})
	if _, err := s.SearchObjectives(&l, good, objs); err != nil {
		t.Fatal(err)
	}
	if st := cache.TierStats(); st.Misses != 6 || len(cache.m) != 3 {
		t.Fatalf("stats %+v with %d entries, want 6 misses and 3 entries", st, len(cache.m))
	}
}

func withCache(o Options, c *Cache) Options {
	o.Cache = c
	return o
}

// TestSearchObjectivesRejectsNoObjectives pins the empty objective list
// as an error on both the cached and the uncached path, never a nil
// result a caller would index.
func TestSearchObjectivesRejectsNoObjectives(t *testing.T) {
	s, err := NewSession(testArch(t, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	l := workload.NewConv("conv", 1, 8, 8, 8, 8, 3, 3, 1, 1)
	for _, cache := range []*Cache{nil, NewCache()} {
		opts := Options{Budget: 50, Seed: 1, Workers: 1, Cache: cache}
		for _, objs := range [][]Objective{nil, {}} {
			bests, err := s.SearchObjectives(&l, opts, objs)
			if err == nil || bests != nil {
				t.Errorf("cache %v, objectives %v: got %v, %v; want an error", cache != nil, objs, bests, err)
			}
		}
	}
}
