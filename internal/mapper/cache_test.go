package mapper

import (
	"reflect"
	"sync"
	"testing"

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
