package sweep

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"photoloop/internal/arch"
	"photoloop/internal/mapper"
	"photoloop/internal/model"
	"photoloop/internal/spec"
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
// from the mapper's memo brought it to 1,466, and points that stop
// concatenating ledgers to 1,446. Memoizing a variant's built
// architecture with its session by build input, and indenting Marshal's
// output in one pass instead of through json.Encoder, brought it to 744,
// and building each zoo network once per process to 624; the ceiling is
// that plus 20%.
const warmHitAllocCeiling = 748

// TestWarmHitAllocs guards "a warm hit costs no more than a lookup": once
// every hot request's searches are cached, answering them again must not
// build any seed mapping, which the allocation count makes visible.
func TestWarmHitAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("warms eight network evaluations")
	}
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled values at random")
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

// warmStudyAllocCeiling bounds the allocations of one warm fidelity
// study of two presets x two networks x three objectives. Rebuilding
// every zoo network per preset cost 695; building each entry once per
// process and copying it at the asked batch brought it to 531. The
// ceiling is that plus 20%.
const warmStudyAllocCeiling = 637

// TestWarmStudyAllocs guards the warm study path: once every search is
// cached, a study must not rebuild its zoo networks (their layer names
// alone cost a formatted string each), which the allocation count makes
// visible.
func TestWarmStudyAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("warms a twelve-point study")
	}
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled values at random")
	}
	sp := StudySpec{
		Presets:       []string{"albireo", "albireo-adc-lean"},
		Workloads:     []string{"resnet18", "mobilenet_v2"},
		Objectives:    []string{"energy", "delay", "edp"},
		Budget:        40,
		Seed:          1,
		SearchWorkers: 1,
		Fidelity:      true,
	}
	opts := Options{Workers: 1, Cache: mapper.NewCache()}
	study := func() {
		if _, err := RunStudy(sp, opts); err != nil {
			t.Fatal(err)
		}
	}
	study() // warm the cache: every search runs here
	_, misses := opts.Cache.Stats()
	allocs := testing.AllocsPerRun(3, study)
	if _, after := opts.Cache.Stats(); after != misses {
		t.Fatalf("warm study searched again: misses %d -> %d", misses, after)
	}
	t.Logf("warm fidelity study: %.0f allocs", allocs)
	if allocs > warmStudyAllocCeiling {
		t.Errorf("warm study allocates %.0f times, ceiling %d", allocs, warmStudyAllocCeiling)
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

// variantSessions initializes point idx's variant on a fresh evaluator
// of sp, as a searched point does, and returns its architecture and the
// session each network layer runs on.
func variantSessions(t *testing.T, sp Spec, idx int64) (*arch.Arch, []*mapper.Session) {
	t.Helper()
	ev, err := NewEvaluator(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	job, err := ev.jobAt(idx, map[int64]*variant{})
	if err != nil {
		t.Fatal(err)
	}
	st := &job.variant.state
	if st.init(job.variant, nil, true); st.err != nil {
		t.Fatal(st.err)
	}
	sessions := make([]*mapper.Session, len(job.network.Layers))
	for i := range sessions {
		if sessions[i], err = job.layerSession(i); err != nil {
			t.Fatal(err)
		}
	}
	return st.a, sessions
}

// TestVariantSessionsShared pins the session memo's build-input index:
// independent evaluators of variants with the same build input (an
// Albireo configuration, fused positions included, or the electrical
// preset's name) share one built architecture and one session, while a
// raw-spec base is built again for each evaluator.
func TestVariantSessionsShared(t *testing.T) {
	var tmpl spec.ArchSpec
	if err := json.Unmarshal([]byte(spec.Template), &tmpl); err != nil {
		t.Fatal(err)
	}
	alexnet := []Workload{{Network: "alexnet"}}
	orLanes := Spec{Base: Base{Albireo: &AlbireoBase{}}, Workloads: alexnet,
		Axes: []Axis{{Param: "or_lanes", Values: []any{1, 3}}}}
	cases := []struct {
		name  string
		sp    Spec
		idx   int64
		fused bool
	}{
		{"albireo preset", Spec{Base: Base{Preset: "albireo"}, Workloads: alexnet}, 0, false},
		{"or_lanes=1", orLanes, 0, false},
		{"or_lanes=3", orLanes, 1, false},
		{"fused", Spec{Base: Base{Preset: "albireo"}, Workloads: []Workload{{Network: "alexnet", Fused: true}}}, 0, true},
		{"electrical-baseline", Spec{Base: Base{Preset: "electrical-baseline"}, Workloads: alexnet}, 0, false},
	}
	for _, c := range cases {
		a1, s1 := variantSessions(t, c.sp, c.idx)
		a2, s2 := variantSessions(t, c.sp, c.idx)
		if a1 != a2 {
			t.Errorf("%s: each evaluator built its own architecture", c.name)
		}
		distinct := map[*mapper.Session]bool{}
		for i := range s1 {
			if s1[i] != s2[i] {
				t.Errorf("%s: layer %d: each evaluator got its own session", c.name, i)
			}
			distinct[s1[i]] = true
		}
		if !c.fused && s1[0].Arch() != a1 {
			t.Errorf("%s: the variant's architecture is not its session's", c.name)
		}
		if c.fused && len(distinct) != 3 {
			t.Errorf("%s: %d distinct per-position sessions, want 3", c.name, len(distinct))
		}
	}
	// 0 and -0 compare equal but fingerprint differently: their variants
	// must not share a session, or one would take the other's cache keys.
	signed := Spec{Base: Base{Albireo: &AlbireoBase{}}, Workloads: alexnet,
		Axes: []Axis{{Param: "dram_bw_words_per_cycle", Values: []any{0.0, math.Copysign(0, -1)}}}}
	_, pos := variantSessions(t, signed, 0)
	_, neg := variantSessions(t, signed, 1)
	if pos[0] == neg[0] || pos[0].Fingerprint() == neg[0].Fingerprint() {
		t.Error("dram_bw_words_per_cycle 0 and -0 share a session")
	}
	raw := Spec{Base: Base{Arch: &tmpl}, Workloads: alexnet}
	a1, _ := variantSessions(t, raw, 0)
	a2, _ := variantSessions(t, raw, 0)
	if a1 == a2 {
		t.Error("raw-spec base: the second evaluator reused the first's architecture")
	}
}
