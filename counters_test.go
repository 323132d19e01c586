package photoloop_test

// Work-counter goldens. A seeded search is deterministic for a fixed
// (Seed, Workers) pair, so the work it does — candidates drawn, pruned,
// delta- and fully evaluated, duplicate, invalid — is a fixed number per
// configuration. These tests pin those numbers for the
// BenchmarkMapperSearch and BenchmarkMapperSearchSeeded configurations,
// so a change that alters how much a search does fails here on any
// machine, where a ns/op reading would only drift. Workers (the lane
// count) is pinned at 1 and 2 to cover more than one budget split. An
// intended change updates the literal and records why in CHANGES.md.

import (
	"testing"

	"photoloop"
)

// searchWork is the deterministic work of one search.
type searchWork struct {
	Evaluations int
	Stats       photoloop.SearchStats
}

func TestSearchWorkCountersGolden(t *testing.T) {
	a, err := photoloop.Albireo(photoloop.Aggressive).Build()
	if err != nil {
		t.Fatal(err)
	}
	layer := photoloop.NewConv("l", 1, 128, 128, 28, 28, 3, 3, 1, 1)
	canonical := photoloop.SeedList(photoloop.AlbireoCanonicalMappings(a, &layer))
	cases := []struct {
		name    string
		seeds   photoloop.SearchSeeds
		workers int
		want    searchWork
	}{
		{"unseeded/workers=1", photoloop.SearchSeeds{}, 1, searchWork{Evaluations: 399, Stats: photoloop.SearchStats{
			Pruned: 221, DeltaEvals: 10, FullEvals: 131, Duplicates: 30, Invalid: 7,
		}}},
		{"unseeded/workers=2", photoloop.SearchSeeds{}, 2, searchWork{Evaluations: 453, Stats: photoloop.SearchStats{
			Pruned: 213, DeltaEvals: 21, FullEvals: 151, Duplicates: 59, Invalid: 9,
		}}},
		// The one-worker seeded search is the configuration whose counts
		// BENCH_PR6.json and BENCH_PR8.json record (taken on one core).
		{"seeded/workers=1", canonical, 1, searchWork{Evaluations: 382, Stats: photoloop.SearchStats{
			Pruned: 277, DeltaEvals: 4, FullEvals: 74, Duplicates: 25, Invalid: 2,
		}}},
		{"seeded/workers=2", canonical, 2, searchWork{Evaluations: 412, Stats: photoloop.SearchStats{
			Pruned: 265, DeltaEvals: 6, FullEvals: 90, Duplicates: 48, Invalid: 3,
		}}},
	}
	for _, tc := range cases {
		best, err := photoloop.Search(a, &layer, photoloop.SearchOptions{
			Budget: 500, Seed: 1, Workers: tc.workers, Seeds: tc.seeds,
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := (searchWork{best.Evaluations, best.Stats}); got != tc.want {
			t.Errorf("%s search work changed:\n got  %+v\n want %+v", tc.name, got, tc.want)
		}
	}
}
