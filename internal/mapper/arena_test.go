package mapper

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"photoloop/internal/arch"
	"photoloop/internal/workload"
)

// sameBest extends compareBests to everything else a caller sees: the
// whole full-ledger Result and the funnel Stats.
func sameBest(t *testing.T, label string, got, want *Best) {
	t.Helper()
	compareBests(t, label, got, want)
	if !reflect.DeepEqual(got.Result, want.Result) {
		t.Fatalf("%s: Result diverged:\n%+v\nvs\n%+v", label, got.Result, want.Result)
	}
	if got.Stats != want.Stats {
		t.Fatalf("%s: Stats %+v != %+v", label, got.Stats, want.Stats)
	}
}

// arenaSteps is a search sequence for one warm Session: the layer shape
// changes from step to step (so does the set of spatial assignments the
// draw touches), and the budget — hence the draw length k — grows, then
// shrinks below every earlier draw.
var arenaSteps = []struct {
	layer  workload.Layer
	budget int
	seed   int64
}{
	{workload.NewConv("conv", 1, 32, 16, 14, 14, 3, 3, 1, 1), 200, 1},
	{workload.NewFC("fc", 1, 64, 128), 600, 2},
	{workload.NewConv("strided", 2, 16, 8, 8, 8, 3, 3, 2, 1), 900, 3},
	{workload.NewConv("conv", 1, 32, 16, 14, 14, 3, 3, 1, 1), 300, 4},
	{workload.NewConv("pointwise", 1, 96, 48, 7, 7, 1, 1, 1, 0), 120, 5},
	{workload.NewFC("fc", 1, 64, 128), 80, 6},
}

// TestDrawArenaReuseMatchesFresh pins the pooled draw arena: every search
// of a sequence on one Session, whose single worker keeps its draw
// buffers from search to search, must equal the same search on a fresh
// Session. Remaining bounds left over from another layer, or candidates
// left over from a longer draw, change the outcome.
func TestDrawArenaReuseMatchesFresh(t *testing.T) {
	// One processor: the worker state always comes back from the pool.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for name, a := range map[string]*arch.Arch{
		"electrical": testArch(t, 1<<20),
		"photonic":   photonicTestArch(t),
	} {
		opts := func(i int) Options {
			return Options{Budget: arenaSteps[i].budget, Seed: arenaSteps[i].seed, Workers: 1}
		}
		want := make([]*Best, len(arenaSteps))
		for i := range arenaSteps {
			fresh, err := NewSession(a)
			if err != nil {
				t.Fatal(err)
			}
			if want[i], err = fresh.Search(&arenaSteps[i].layer, opts(i)); err != nil {
				t.Fatal(err)
			}
		}
		warm, err := NewSession(a)
		if err != nil {
			t.Fatal(err)
		}
		for i := range arenaSteps {
			got, err := warm.Search(&arenaSteps[i].layer, opts(i))
			if err != nil {
				t.Fatal(err)
			}
			sameBest(t, fmt.Sprintf("%s/step%d/%s", name, i, arenaSteps[i].layer.Name), got, want[i])
		}
	}
}

// TestConcurrentSearchesShareSession runs searches from several
// goroutines on one Session, whose workers share its pool of worker
// states: each outcome must equal the same search run alone.
func TestConcurrentSearchesShareSession(t *testing.T) {
	a := photonicTestArch(t)
	opts := func(i int) Options {
		return Options{Budget: arenaSteps[i].budget, Seed: arenaSteps[i].seed, Workers: 2}
	}
	want := make([]*Best, len(arenaSteps))
	for i := range arenaSteps {
		fresh, err := NewSession(a)
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = fresh.Search(&arenaSteps[i].layer, opts(i)); err != nil {
			t.Fatal(err)
		}
	}
	shared, err := NewSession(a)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, rounds = 4, 3
	got := make([][]*Best, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each goroutine walks the steps from its own offset, so
			// different layers and budgets run side by side.
			for r := 0; r < rounds*len(arenaSteps); r++ {
				i := (g + r) % len(arenaSteps)
				b, err := shared.Search(&arenaSteps[i].layer, opts(i))
				if err != nil {
					errs[g] = err
					return
				}
				got[g] = append(got[g], b)
			}
		}()
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		for r, b := range got[g] {
			i := (g + r) % len(arenaSteps)
			sameBest(t, fmt.Sprintf("goroutine%d/round%d/%s", g, r, arenaSteps[i].layer.Name), b, want[i])
		}
	}
}
