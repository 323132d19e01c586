package photoloop_test

import (
	"testing"

	"photoloop"
)

// searchBytesCeiling caps the bytes one warm budget-500 seeded search
// allocates. Before the draw buffers were pooled per worker it was
// about 137 KB; with them pooled it is about 20 KB (incumbent clones and
// the winner's full-ledger Result).
const searchBytesCeiling = 32 << 10

// TestSearchBytesPerSearch gates the pooled search buffers: a repeat
// search on a warm session must not rebuild its exploration stream's
// buffers, which made up most of the bytes every search allocated.
func TestSearchBytesPerSearch(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled values at random")
	}
	a, err := photoloop.Albireo(photoloop.Aggressive).Build()
	if err != nil {
		t.Fatal(err)
	}
	sess, err := photoloop.NewMapperSession(a)
	if err != nil {
		t.Fatal(err)
	}
	layer := photoloop.NewConv("l", 1, 128, 128, 28, 28, 3, 3, 1, 1)
	opts := photoloop.SearchOptions{
		Budget: 500, Seed: 1, Workers: 2,
		Seeds: photoloop.SeedList(photoloop.AlbireoCanonicalMappings(a, &layer)),
	}
	search := func() {
		if _, err := sess.Search(&layer, opts); err != nil {
			t.Fatal(err)
		}
	}
	search() // warm the session's worker states
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			search()
		}
	})
	perSearch := r.AllocedBytesPerOp()
	t.Logf("warm seeded search: %d B over %d searches", perSearch, r.N)
	if perSearch > searchBytesCeiling {
		t.Errorf("a warm search allocates %d B, ceiling %d", perSearch, searchBytesCeiling)
	}
}
