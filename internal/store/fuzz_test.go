package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"photoloop/internal/mapper"
)

// FuzzDecodeBest drives arbitrary bytes through the store's payload
// decoder. The decoder must never panic, and any payload it accepts must
// re-encode to exactly the input bytes — the codec has one canonical form
// per value, so a successful decode proves the record is a genuine
// EncodeBest output.
//
// Seed corpus: testdata/fuzz/FuzzDecodeBest (valid encodings of
// randomized structures, regenerated by TestWriteFuzzCorpus with
// UPDATE_FUZZ_CORPUS=1) plus the inline seeds below.
func FuzzDecodeBest(f *testing.F) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 4; i++ {
		f.Add(EncodeBest(randomBest(rng)))
	}
	f.Add([]byte{})
	f.Add([]byte{codecVersion})
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeBest(data)
		if err != nil {
			return
		}
		if again := EncodeBest(b); !bytes.Equal(again, data) {
			t.Fatalf("accepted non-canonical payload: %d bytes in, %d bytes re-encoded", len(data), len(again))
		}
	})
}

// TestWriteFuzzCorpus regenerates the committed seed corpus under
// testdata/fuzz/FuzzDecodeBest when UPDATE_FUZZ_CORPUS=1 is set;
// otherwise it verifies the committed seeds still decode.
func TestWriteFuzzCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var seeds [][]byte
	for i := 0; i < 4; i++ {
		seeds = append(seeds, EncodeBest(randomBest(rng)))
	}
	if !syncFuzzCorpus(t, "FuzzDecodeBest", seeds) {
		return
	}
	for i, s := range seeds {
		if _, err := DecodeBest(s); err != nil {
			t.Fatalf("seed %d no longer decodes: %v", i, err)
		}
	}
}

// syncFuzzCorpus writes seeds as the committed corpus of the named fuzz
// target when UPDATE_FUZZ_CORPUS=1 is set and reports false (nothing left
// to verify). Otherwise it fails the test if the corpus is missing and
// reports true: the caller then checks the seeds still exercise the path
// they were written for.
func syncFuzzCorpus(t *testing.T, target string, seeds [][]byte) bool {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", target)
	if os.Getenv("UPDATE_FUZZ_CORPUS") == "1" {
		if err := os.MkdirAll(dir, 0o777); err != nil {
			t.Fatal(err)
		}
		for i, s := range seeds {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", s)
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%d", i)), []byte(body), 0o666); err != nil {
				t.Fatal(err)
			}
		}
		return false
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("seed corpus missing (rerun with UPDATE_FUZZ_CORPUS=1): %v", err)
	}
	return true
}

// logSeeds builds FuzzOpenLog's seeds: an intact three-record log, the
// same log with a torn tail, a header-only log and a foreign file.
func logSeeds(tb testing.TB) [][]byte {
	dir := tb.TempDir()
	st, err := Open(dir)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 3; i++ {
		if err := st.Store(mapperKey(rng), randomBest(rng)); err != nil {
			tb.Fatal(err)
		}
	}
	st.Close()
	whole, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		tb.Fatal(err)
	}
	return [][]byte{
		whole,
		whole[:len(whole)-5],
		append([]byte{}, logMagic...),
		[]byte("not a photoloop store"),
	}
}

// FuzzOpenLog writes arbitrary bytes as the store's log and opens it.
// Open must never panic, and must either refuse the file (a foreign
// header) or accept it with the file truncated to a prefix of the input,
// Recovered reporting exactly the cut bytes. An accepted store must stay
// writable, serve a fresh record, and reopen clean — recovery leaves a
// log that needs no further recovery.
//
// Seed corpus: testdata/fuzz/FuzzOpenLog (regenerated by
// TestWriteLogFuzzCorpus with UPDATE_FUZZ_CORPUS=1) plus the inline
// seeds below.
func FuzzOpenLog(f *testing.F) {
	for _, seed := range logSeeds(f) {
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, logName)
		if err := os.WriteFile(path, data, 0o666); err != nil {
			t.Fatal(err)
		}
		st, err := Open(dir)
		if err != nil {
			if after, rerr := os.ReadFile(path); rerr != nil || !bytes.Equal(after, data) {
				t.Fatalf("refused log modified (%d -> %d bytes, %v)", len(data), len(after), rerr)
			}
			return
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 {
			if !bytes.Equal(after, logMagic) {
				t.Fatalf("empty log initialized to %q, want the header", after)
			}
		} else if !bytes.HasPrefix(data, after) || len(after) < len(logMagic) {
			t.Fatalf("accepted log is not a prefix of the input (%d -> %d bytes)", len(data), len(after))
		}
		if len(data) > 0 && st.Recovered() != int64(len(data)-len(after)) {
			t.Fatalf("Recovered = %d, but %d bytes were cut", st.Recovered(), len(data)-len(after))
		}
		k := mapperKey(rand.New(rand.NewSource(1)))
		for st.Has(k) {
			k.Opts++ // the fuzzed log may hold this key already
		}
		b := randomBest(rand.New(rand.NewSource(2)))
		if err := st.Store(k, b); err != nil {
			t.Fatalf("store not writable after opening fuzzed log: %v", err)
		}
		if got, ok := st.Load(k); !ok || !bytes.Equal(EncodeBest(got), EncodeBest(b)) {
			t.Fatal("fresh record not served after opening fuzzed log")
		}
		n := st.Len()
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		again, err := Open(dir)
		if err != nil {
			t.Fatalf("reopening a recovered log: %v", err)
		}
		defer again.Close()
		if again.Recovered() != 0 || again.Len() != n {
			t.Fatalf("reopen recovered %d bytes and holds %d keys, want 0 and %d", again.Recovered(), again.Len(), n)
		}
	})
}

// TestWriteLogFuzzCorpus mirrors TestWriteFuzzCorpus for FuzzOpenLog:
// regenerates testdata/fuzz/FuzzOpenLog under UPDATE_FUZZ_CORPUS=1,
// otherwise verifies the committed corpus exists and the seeds still
// cover the clean, torn and foreign outcomes.
func TestWriteLogFuzzCorpus(t *testing.T) {
	seeds := logSeeds(t)
	if !syncFuzzCorpus(t, "FuzzOpenLog", seeds) {
		return
	}
	for i, want := range []struct {
		ok        bool
		recovered bool
	}{{true, false}, {true, true}, {true, false}, {false, false}} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, logName), seeds[i], 0o666); err != nil {
			t.Fatal(err)
		}
		st, err := Open(dir)
		if (err == nil) != want.ok {
			t.Fatalf("seed %d: Open error %v, want accepted=%v", i, err, want.ok)
		}
		if err != nil {
			continue
		}
		if got := st.Recovered() > 0; got != want.recovered {
			t.Errorf("seed %d: recovered %d bytes, want recovery=%v", i, st.Recovered(), want.recovered)
		}
		st.Close()
	}
}

func mapperKey(rng *rand.Rand) mapper.Key {
	return mapper.Key{Arch: rng.Uint64(), Layer: rng.Uint64(), Opts: rng.Uint64()}
}
