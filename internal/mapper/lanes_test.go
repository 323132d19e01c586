package mapper_test

import (
	"bytes"
	"runtime"
	"testing"

	"photoloop/internal/albireo"
	"photoloop/internal/mapper"
	"photoloop/internal/store"
	"photoloop/internal/workload"
)

// TestSearchLanesIndependentOfGOMAXPROCS: a search that leaves Workers
// unset runs mapper.DefaultLanes lanes however many processors run them,
// so its stored bytes are the same on every machine and equal an explicit
// Workers: DefaultLanes search. Under GOMAXPROCS 1 and 2 the lanes
// outnumber the goroutines, which then run several lanes each on one
// pooled worker state.
func TestSearchLanesIndependentOfGOMAXPROCS(t *testing.T) {
	a, err := albireo.Default(albireo.Conservative).Build()
	if err != nil {
		t.Fatal(err)
	}
	layer := workload.NewConv("conv", 1, 64, 64, 28, 28, 3, 3, 1, 1)
	objs := []mapper.Objective{mapper.MinEnergy, mapper.MinDelay, mapper.MinEDP}
	search := func(workers int) [][]byte {
		t.Helper()
		s, err := mapper.NewSession(a)
		if err != nil {
			t.Fatal(err)
		}
		bests, err := s.SearchObjectives(&layer, mapper.Options{
			Budget: 300, Seed: 1, Workers: workers,
			Seeds: mapper.SeedList(albireo.CanonicalMappings(a, &layer)),
		}, objs)
		if err != nil {
			t.Fatal(err)
		}
		out := make([][]byte, len(bests))
		for i, b := range bests {
			out[i] = store.EncodeBest(b)
		}
		return out
	}
	want := search(mapper.DefaultLanes)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		got := search(0)
		for i, obj := range objs {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("GOMAXPROCS=%d %s: unpinned search differs from Workers: %d", procs, obj, mapper.DefaultLanes)
			}
		}
	}
}
