package sweep

import (
	"bytes"
	"testing"

	"photoloop/internal/mapper"
	"photoloop/internal/model"
	"photoloop/internal/workload"
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
// just to form the cache key; with the memo it cost about 5,040, two
// thirds of them cloning every cached best and building a fresh session
// per request. Sharing the cached bests read-only and taking sessions
// from the mapper's memo brought it to 1,466; the ceiling is that plus
// 20%.
const warmHitAllocCeiling = 1760

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

// TestWarmHitsShareCachedBests pins what makes a warm hit a lookup: a
// second Run of the same spec on the same cache hands out the cached
// results themselves, not copies, one per layer in network order;
// ResNet-18's repeated-shape layers share their representative's result
// under their own names; and a warm Eval answers the bytes of an uncached
// one.
func TestWarmHitsShareCachedBests(t *testing.T) {
	req := EvalRequest{Preset: "albireo", Network: "resnet18", Budget: 60, Seed: 1, Workers: 1}
	sp := Spec{
		Base:          Base{Preset: req.Preset},
		Workloads:     []Workload{{Network: req.Network}},
		Budget:        req.Budget,
		Seed:          req.Seed,
		SearchWorkers: req.Workers,
		IncludeLayers: true,
	}
	encode := func(resp *EvalResponse) []byte {
		var buf bytes.Buffer
		if err := EncodeResponseJSON(&buf, resp); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	cache := mapper.NewCache()
	var points [2]*Point
	for k := range points {
		res, err := Run(sp, Options{Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		points[k] = &res.Points[0]
	}
	first, second := points[0], points[1]
	net, err := workload.ByName("resnet18", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(second.Results) != len(net.Layers) || len(first.Results) != len(net.Layers) {
		t.Fatalf("got %d and %d layer results, want %d", len(first.Results), len(second.Results), len(net.Layers))
	}
	byShape := map[uint64]*model.Result{}
	repeats := 0
	for i, r := range second.Results {
		name := net.Layers[i].Name
		if r != first.Results[i] {
			t.Errorf("layer %s: warm hit returned a copy, not the cached result", name)
		}
		if lo := second.Layers[i]; lo.Layer != name {
			t.Errorf("outcome %d names layer %q, want %q", i, lo.Layer, name)
		}
		shape := net.Layers[i].ShapeFingerprint()
		rep, seen := byShape[shape]
		switch {
		case !seen:
			byShape[shape] = r
		case r != rep:
			t.Errorf("layer %s: repeated shape got its own result", name)
		default:
			repeats++
		}
	}
	if repeats == 0 {
		t.Fatal("resnet18 has no repeated-shape layers")
	}
	_, misses := cache.Stats()
	warm, err := Eval(&req, cache)
	if err != nil {
		t.Fatal(err)
	}
	if _, after := cache.Stats(); after != misses {
		t.Fatalf("warm Eval searched again: misses %d -> %d", misses, after)
	}
	uncached, err := Eval(&req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(warm), encode(uncached)) {
		t.Error("warm answer differs from an uncached Eval")
	}
}
