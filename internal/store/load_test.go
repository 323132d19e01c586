package store

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"photoloop/internal/albireo"
	"photoloop/internal/mapper"
	"photoloop/internal/workload"
)

// loadedStore opens a store holding n randomized records and returns it
// with their keys, the key of the record with the largest payload first:
// every other record then fits in the read buffer that one leaves behind.
func loadedStore(t *testing.T, n int) (*Store, []mapper.Key) {
	t.Helper()
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	keys := storeBests(t, st, n, 11)
	largest := 0
	for i, k := range keys {
		if st.index[k].len > st.index[keys[largest]].len {
			largest = i
		}
	}
	keys[0], keys[largest] = keys[largest], keys[0]
	return st, keys
}

// fresh decodes the key's stored payload into memory nothing else uses.
func fresh(t *testing.T, st *Store, k mapper.Key) *mapper.Best {
	t.Helper()
	payload, ok := st.Payload(k)
	if !ok {
		t.Fatalf("key %v has no payload", k)
	}
	b, err := DecodeBest(payload)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestLoadOwnsItsBest: a best returned by Load shares no memory with the
// pooled buffer it was read into, nor a decoded best with its payload.
// Loads of other records, one after another and then concurrently, reuse
// that buffer; the first best must come through them unchanged. A decoder
// that kept strings as pieces of its input fails both halves.
func TestLoadOwnsItsBest(t *testing.T) {
	st, keys := loadedStore(t, 64)
	first, ok := st.Load(keys[0])
	if !ok {
		t.Fatal("first record missed")
	}
	for _, k := range keys[1:] {
		if _, ok := st.Load(k); !ok {
			t.Fatalf("record %v missed", k)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, k := range keys[1:] {
				st.Load(k)
			}
		}()
	}
	wg.Wait()
	if want := fresh(t, st, keys[0]); !reflect.DeepEqual(first, want) {
		t.Fatalf("loaded best changed after its read buffer was reused:\n got %#v\nwant %#v", first, want)
	}

	payload, _ := st.Payload(keys[0])
	scratch := bytes.Clone(payload)
	b, err := DecodeBest(scratch)
	if err != nil {
		t.Fatal(err)
	}
	for i := range scratch {
		scratch[i] = 0xA5
	}
	if want := fresh(t, st, keys[0]); !reflect.DeepEqual(b, want) {
		t.Fatalf("decoded best changed after its payload was overwritten:\n got %#v\nwant %#v", b, want)
	}
}

// TestConcurrentLoads: concurrent Loads on one store, sharing the pooled
// read buffers, each return their own record. Run under -race.
func TestConcurrentLoads(t *testing.T) {
	st, keys := loadedStore(t, 48)
	want := make([]*mapper.Best, len(keys))
	for i, k := range keys {
		want[i] = fresh(t, st, k)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < 3*len(keys); n++ {
				i := (w*7 + n) % len(keys)
				got, ok := st.Load(keys[i])
				if !ok || !reflect.DeepEqual(got, want[i]) {
					errs <- "worker loaded a wrong or missing record"
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

// decodeAllocCeiling bounds DecodeBest's allocations for one record of a
// real Albireo search (6 levels, 10 usages, 18 ledger items). Decoding one
// object per field cost 116 allocations; decoding into a few backing
// stores (the best with its mapping and result, the levels, one Dim
// slice, Usage, Energy and one string slab) costs 6. The ceiling is that
// plus 20%.
const decodeAllocCeiling = 7

// TestDecodeBestAllocs gates the decoder's per-record allocations, the
// part of a warm job's store reads that scales with the strings and
// slices in a record.
func TestDecodeBestAllocs(t *testing.T) {
	a, err := albireo.Default(albireo.Conservative).Build()
	if err != nil {
		t.Fatal(err)
	}
	s, err := mapper.NewSession(a)
	if err != nil {
		t.Fatal(err)
	}
	layer := workload.NewConv("conv", 1, 64, 64, 28, 28, 3, 3, 1, 1)
	best, err := s.Search(&layer, mapper.Options{Budget: 200, Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if l, u, e := len(best.Mapping.Levels), len(best.Result.Usage), len(best.Result.Energy); l != 6 || u != 10 || e != 18 {
		t.Fatalf("record shape %d levels, %d usages, %d ledger items; want 6, 10, 18", l, u, e)
	}
	payload := EncodeBest(best)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := DecodeBest(payload); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("DecodeBest of a %d-byte Albireo record: %.0f allocs", len(payload), allocs)
	if allocs > decodeAllocCeiling {
		t.Errorf("DecodeBest allocates %.0f times per record, ceiling %d", allocs, decodeAllocCeiling)
	}
}
