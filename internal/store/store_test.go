package store

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"photoloop/internal/arch"
	"photoloop/internal/components"
	"photoloop/internal/mapper"
	"photoloop/internal/mapping"
	"photoloop/internal/model"
	"photoloop/internal/workload"
)

func testArch(t *testing.T) *arch.Arch {
	t.Helper()
	lib := components.NewLibrary()
	mk := func(class, name string, p components.Params) {
		c, err := components.Build(class, name, p)
		if err != nil {
			t.Fatal(err)
		}
		lib.MustAdd(c)
	}
	mk("dram", "DRAM", components.Params{"pj_per_bit": 8})
	mk("sram", "Buf", components.Params{"capacity_bits": float64(1 << 20), "access_bits": 8})
	mk("regfile", "Reg", components.Params{"access_bits": 8})
	a := &arch.Arch{
		Name: "storable", Lib: lib, ClockGHz: 1, DefaultWordBits: 8,
		Levels: []arch.Level{
			{Name: "DRAM", Keeps: workload.AllTensorSet(), AccessComponent: "DRAM"},
			{
				Name: "Buf", Keeps: workload.AllTensorSet(), AccessComponent: "Buf",
				CapacityBits: 1 << 20,
				Spatial:      []arch.SpatialFactor{arch.Choice(4, workload.DimK, workload.DimC)},
			},
			{Name: "Reg", Keeps: workload.AllTensorSet(), AccessComponent: "Reg", CapacityBits: 2048},
		},
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	return a
}

// TestDiskHitBitIdentical is the store's core equivalence property
// (the TestRunMatchesDirectNetwork pattern, one tier down): a search
// served from a cold store — a fresh process's cache whose memory tier
// has never seen the key — is bit-identical to the direct computation.
func TestDiskHitBitIdentical(t *testing.T) {
	a := testArch(t)
	l := workload.NewConv("conv", 1, 16, 8, 8, 8, 3, 3, 1, 1)
	opts := mapper.Options{Budget: 200, Seed: 1, Workers: 2}

	s, err := mapper.NewSession(a)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := s.Search(&l, opts)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cache := mapper.NewCache()
	cache.SetPersister(st)
	opts.Cache = cache
	warm, err := s.Search(&l, opts) // computed, written through
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": new store handle, new cache, new session.
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Recovered() != 0 {
		t.Fatalf("clean log reported %d recovered bytes", st2.Recovered())
	}
	cache2 := mapper.NewCache()
	cache2.SetPersister(st2)
	s2, err := mapper.NewSession(a)
	if err != nil {
		t.Fatal(err)
	}
	opts.Cache = cache2
	fromDisk, err := s2.Search(&l, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := cache2.TierStats()
	if ts.DiskHits != 1 || ts.Misses != 0 {
		t.Fatalf("tier stats = %+v, want 1 disk hit and 0 misses", ts)
	}

	for _, got := range []*mapper.Best{warm, fromDisk} {
		if !reflect.DeepEqual(got.Result, direct.Result) {
			t.Errorf("result diverged from direct computation:\n got %+v\nwant %+v", got.Result, direct.Result)
		}
		if !reflect.DeepEqual(got.Mapping, direct.Mapping) {
			t.Errorf("mapping diverged:\n got %+v\nwant %+v", got.Mapping, direct.Mapping)
		}
		if got.Evaluations != direct.Evaluations || got.Stats != direct.Stats {
			t.Errorf("accounting diverged: %d/%+v vs %d/%+v",
				got.Evaluations, got.Stats, direct.Evaluations, direct.Stats)
		}
	}
}

// randomBest builds a structurally arbitrary Best exercising every codec
// field, including floats whose round-trip would fail under any decimal
// formatting (the codec carries IEEE bits).
func randomBest(rng *rand.Rand) *mapper.Best {
	rs := func() string {
		n := rng.Intn(12)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(rng.Intn(256))
		}
		return string(b)
	}
	rf := func() float64 {
		switch rng.Intn(8) {
		case 0:
			return 0
		case 1:
			return math.Inf(1)
		case 2:
			return math.SmallestNonzeroFloat64
		case 3:
			return -1.0 / 3.0
		default:
			return math.Float64frombits(rng.Uint64() &^ (0x7FF << 52)) // finite
		}
	}
	rp := func() workload.Point {
		var p workload.Point
		for i := range p {
			p[i] = rng.Intn(1 << 16)
		}
		return p
	}
	m := &mapping.Mapping{Levels: make([]mapping.LevelMapping, rng.Intn(5))}
	for i := range m.Levels {
		lm := &m.Levels[i]
		lm.Temporal = rp()
		lm.FreeSpatial = rp()
		if rng.Intn(4) > 0 {
			lm.Perm = make([]workload.Dim, rng.Intn(int(workload.NumDims)+1))
			for j := range lm.Perm {
				lm.Perm[j] = workload.Dim(rng.Intn(int(workload.NumDims)))
			}
		}
		if rng.Intn(2) > 0 {
			lm.SpatialChoice = make([]workload.Dim, rng.Intn(3))
			for j := range lm.SpatialChoice {
				lm.SpatialChoice[j] = workload.Dim(rng.Intn(int(workload.NumDims)))
			}
		}
	}
	r := &model.Result{
		Layer: rs(), MACs: rng.Int63(), PaddedMACs: rng.Int63(),
		ComputeCycles: rng.Int63(), Cycles: rf(), BottleneckLevel: rs(),
		Utilization: rf(), MACsPerCycle: rf(), TotalPJ: rf(), AreaUM2: rf(),
	}
	for i := rng.Intn(4); i > 0; i-- {
		r.Usage = append(r.Usage, model.Usage{
			Level: rs(), LevelIndex: rng.Intn(8), Tensor: workload.Tensor(rng.Intn(3)),
			TileElems: rng.Int63(), Instances: rng.Int63(),
			Fills: rf(), FillsDistinct: rf(), Reads: rf(), Writes: rf(),
			Updates: rf(), Arrivals: rf(), Drains: rf(), DrainsMerged: rf(),
		})
	}
	for i := rng.Intn(4); i > 0; i-- {
		r.Energy = append(r.Energy, model.EnergyItem{
			Level: rs(), Component: rs(), Class: rs(), Action: rs(), Tensor: rs(),
			Count: rf(), TotalPJ: rf(),
		})
	}
	return &mapper.Best{
		Mapping: m, Result: r, Evaluations: rng.Intn(1 << 20),
		Stats: mapper.SearchStats{
			Pruned: rng.Intn(1 << 16), DeltaEvals: rng.Intn(1 << 16),
			FullEvals: rng.Intn(1 << 16), Duplicates: rng.Intn(1 << 16),
			Invalid: rng.Intn(1 << 16), WarmStartEvals: rng.Intn(1 << 16),
		},
	}
}

// TestCodecRoundTripProperty: decode(encode(x)) deep-equals x, and the
// re-encoding is byte-stable, over randomized structures.
func TestCodecRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		want := randomBest(rng)
		buf := EncodeBest(want)
		got, err := DecodeBest(buf)
		if err != nil {
			t.Fatalf("iter %d: decode failed: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d: round trip diverged:\n got %#v\nwant %#v", i, got, want)
		}
		if again := EncodeBest(got); !bytes.Equal(again, buf) {
			t.Fatalf("iter %d: re-encoding not byte-stable", i)
		}
	}
}

// TestDecodeRejectsGarbage: truncations and bit flips of a valid payload
// must decode to an error or to an equally valid structure — never panic
// (the fuzz target extends this; this is the deterministic floor).
func TestDecodeRejectsGarbage(t *testing.T) {
	buf := EncodeBest(randomBest(rand.New(rand.NewSource(3))))
	for cut := 0; cut < len(buf); cut += 3 {
		if _, err := DecodeBest(buf[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded without error", cut)
		}
	}
	if _, err := DecodeBest(append(append([]byte(nil), buf...), 0)); err == nil {
		t.Fatal("trailing byte decoded without error")
	}
	bad := append([]byte(nil), buf...)
	bad[0] = 99 // unknown codec version
	if _, err := DecodeBest(bad); err == nil {
		t.Fatal("unknown version decoded without error")
	}
}

// storeBest persists n synthetic records and returns their keys.
func storeBests(t *testing.T, st *Store, n int, seed int64) []mapper.Key {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	keys := make([]mapper.Key, n)
	for i := range keys {
		keys[i] = mapper.Key{Arch: rng.Uint64(), Layer: rng.Uint64(), Opts: rng.Uint64()}
		if err := st.Store(keys[i], randomBest(rng)); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

// TestCorruptedRecordDetectedAndDropped: a bit flip inside the log makes
// the affected suffix a miss (recompute), never a wrong answer, and the
// store keeps accepting writes afterward.
func TestCorruptedRecordDetectedAndDropped(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := storeBests(t, st, 4, 11)
	wantFirst, ok := st.Load(keys[0])
	if !ok {
		t.Fatal("stored key missing")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, logName)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0x40 // flip a bit past the first record
	if err := os.WriteFile(path, buf, 0o666); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Recovered() == 0 {
		t.Fatal("corruption not detected")
	}
	if st2.Len() >= 4 {
		t.Fatalf("store kept %d records across a corrupted tail", st2.Len())
	}
	if got, ok := st2.Load(keys[0]); !ok {
		t.Fatal("first (intact) record lost")
	} else if !reflect.DeepEqual(got, wantFirst) {
		t.Fatal("first record changed across recovery")
	}
	if _, ok := st2.Load(keys[3]); ok {
		t.Fatal("record past the corruption served — must miss and recompute")
	}
	// Recompute path: the dropped key can be stored and served again.
	b := randomBest(rand.New(rand.NewSource(5)))
	if err := st2.Store(keys[3], b); err != nil {
		t.Fatal(err)
	}
	if got, ok := st2.Load(keys[3]); !ok || !reflect.DeepEqual(got, b) {
		t.Fatal("re-stored record not served intact")
	}
}

// TestTruncatedTailRecovered: a torn final record (crash mid-append) is
// dropped on open; everything before it survives.
func TestTruncatedTailRecovered(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := storeBests(t, st, 3, 21)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, logName)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-7); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Len() != 2 {
		t.Fatalf("store has %d records after torn tail, want 2", st2.Len())
	}
	for _, k := range keys[:2] {
		if _, ok := st2.Load(k); !ok {
			t.Fatalf("intact record %v lost", k)
		}
	}
	if _, ok := st2.Load(keys[2]); ok {
		t.Fatal("torn record served")
	}
}

// TestForeignFileRefused: Open must not reinitialize a file that is not a
// photoloop store.
func TestForeignFileRefused(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, logName)
	if err := os.WriteFile(path, []byte("precious user data"), 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("foreign file accepted")
	}
	buf, err := os.ReadFile(path)
	if err != nil || string(buf) != "precious user data" {
		t.Fatalf("foreign file modified: %q, %v", buf, err)
	}
}

// TestStoreDedupesKeys: storing an existing key is a no-op (content
// addressing — equal keys mean equal results).
func TestStoreDedupesKeys(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	k := mapper.Key{Arch: 1, Layer: 2, Opts: 3}
	first := randomBest(rand.New(rand.NewSource(1)))
	if err := st.Store(k, first); err != nil {
		t.Fatal(err)
	}
	if err := st.Store(k, randomBest(rand.New(rand.NewSource(2)))); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 1 {
		t.Fatalf("len = %d, want 1", st.Len())
	}
	if got, ok := st.Load(k); !ok || !reflect.DeepEqual(got, first) {
		t.Fatal("first write must win")
	}
}

// TestStaleLockReclaimed: a lock file whose pid is dead (simulated with
// an impossible pid) must not block Open, and Open re-stamps it.
func TestStaleLockReclaimed(t *testing.T) {
	dir := t.TempDir()
	lock := filepath.Join(dir, logName+lockSuffix)
	if err := os.WriteFile(lock, []byte("999999999\n"), 0o666); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	buf, err := os.ReadFile(lock)
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(buf)) != strconv.Itoa(os.Getpid()) {
		t.Fatalf("reclaimed lock holds %q, want our pid", buf)
	}
}

// TestSecondOpenRefused: the store has one writer. While a handle holds
// the directory, a second Open fails and names the holding pid; once the
// handle closes, the directory opens again with every record intact.
func TestSecondOpenRefused(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := storeBests(t, st, 2, 31)
	if _, err := Open(dir); err == nil {
		t.Fatal("second Open of a held store succeeded")
	} else if !strings.Contains(err.Error(), "locked by pid "+strconv.Itoa(os.Getpid())) {
		t.Fatalf("lock error %q does not name the holding pid", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := Open(dir)
	if err != nil {
		t.Fatalf("Open after Close: %v", err)
	}
	defer again.Close()
	for _, k := range keys {
		if _, ok := again.Load(k); !ok {
			t.Fatalf("record %v lost across reopen", k)
		}
	}
}

// TestLegacySegmentRefused: a numbered segment left by the older
// multi-writer layout makes Open fail naming the file, which stays
// untouched — opening only the primary log would silently drop it.
func TestLegacySegmentRefused(t *testing.T) {
	dir := t.TempDir()
	seg := filepath.Join(dir, "photoloop-store.001.log")
	body := append(append([]byte{}, logMagic...), "legacy records"...)
	if err := os.WriteFile(seg, body, 0o666); err != nil {
		t.Fatal(err)
	}
	_, err := Open(dir)
	if err == nil {
		t.Fatal("directory with a legacy segment opened")
	}
	if !strings.Contains(err.Error(), "photoloop-store.001.log") {
		t.Fatalf("error %q does not name the legacy segment", err)
	}
	if buf, rerr := os.ReadFile(seg); rerr != nil || !bytes.Equal(buf, body) {
		t.Fatalf("legacy segment modified: %v", rerr)
	}
	if _, serr := os.Stat(filepath.Join(dir, logName+lockSuffix)); !os.IsNotExist(serr) {
		t.Fatalf("refused Open left a lock behind: %v", serr)
	}
}
