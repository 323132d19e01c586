package sweep

import (
	"bytes"
	"testing"

	"photoloop/internal/mapper"
)

// warmHitCases is perfbench serve-mixed's hot set: the eight /v1/eval
// requests its clients repeat as memory-tier hits, each pinned to one
// search worker.
var warmHitCases = []EvalRequest{
	{Preset: "albireo", Network: "resnet18", Objective: "energy"},
	{Preset: "albireo-aggressive", Network: "alexnet", Objective: "delay"},
	{Preset: "albireo-wdm-wide", Network: "vgg16", Objective: "edp"},
	{Preset: "albireo-adc-lean", Network: "resnet18", Objective: "energy"},
	{Preset: "electrical-baseline", Network: "alexnet", Objective: "energy"},
	{Preset: "albireo", Network: "vgg16", Objective: "delay"},
	{Preset: "albireo-aggressive", Network: "resnet18", Objective: "edp"},
	{Preset: "electrical-baseline", Network: "resnet18", Objective: "delay"},
}

// warmHitAllocCeiling bounds the allocations of one replay of the eight
// hot requests through Eval + EncodeResponseJSON on a warm cache. Before
// the seed-print memo a replay cost 42,180 allocations, most of them
// rebuilding and fingerprinting every layer's canonical Albireo seeds
// just to form the cache key; with the memo it costs about 4,830.
const warmHitAllocCeiling = 6000

// TestWarmHitAllocs guards "a warm hit costs no more than a lookup": once
// every hot request's searches are cached, answering them again must not
// build any seed mapping, which the allocation count makes visible.
func TestWarmHitAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("warms eight network evaluations")
	}
	reqs := make([]EvalRequest, len(warmHitCases))
	for i, c := range warmHitCases {
		c.Seed = int64(1000 + i + 1)
		c.Workers = 1
		reqs[i] = c
	}
	cache := mapper.NewCache()
	replay := func() {
		for i := range reqs {
			resp, err := Eval(&reqs[i], cache)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := EncodeResponseJSON(&buf, resp); err != nil {
				t.Fatal(err)
			}
		}
	}
	replay() // warm the cache: every search runs here
	_, misses := cache.Stats()
	allocs := testing.AllocsPerRun(3, replay)
	if _, after := cache.Stats(); after != misses {
		t.Fatalf("replay searched again: misses %d -> %d", misses, after)
	}
	t.Logf("warm replay of %d hot requests: %.0f allocs", len(reqs), allocs)
	if allocs > warmHitAllocCeiling {
		t.Errorf("warm replay allocates %.0f times, ceiling %d", allocs, warmHitAllocCeiling)
	}
}
