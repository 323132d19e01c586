package sweep

import (
	"sync"
	"testing"

	"photoloop/internal/mapper"
)

// studyWork totals the deterministic work of every search a run computed.
type studyWork struct {
	Searches    int
	Evaluations int
	Stats       mapper.SearchStats
}

// workCounter is a mapper.Persister that never hits and counts every
// computed search the cache writes through to it.
type workCounter struct {
	mu   sync.Mutex
	work studyWork
}

func (c *workCounter) Load(mapper.Key) (*mapper.Best, bool) { return nil, false }

func (c *workCounter) Store(_ mapper.Key, b *mapper.Best) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, s := &c.work, b.Stats
	w.Searches++
	w.Evaluations += b.Evaluations
	w.Stats.Pruned += s.Pruned
	w.Stats.DeltaEvals += s.DeltaEvals
	w.Stats.FullEvals += s.FullEvals
	w.Stats.Duplicates += s.Duplicates
	w.Stats.Invalid += s.Invalid
	w.Stats.WarmStartEvals += s.WarmStartEvals
	return nil
}

// TestStudyWorkCountersGolden pins the total search work of a cold study
// over every preset × the whole zoo × every study objective with
// fidelity on (perfbench's study-cold operation at seed 1). Searches are
// deterministic and the point pool never changes results, so the totals
// are the same at every pool size. A change that alters how much the
// study searches fails here; an intended one updates the literal and
// records why in CHANGES.md.
func TestStudyWorkCountersGolden(t *testing.T) {
	want := studyWork{Searches: 1350, Evaluations: 1008511, Stats: mapper.SearchStats{
		Pruned: 682786, DeltaEvals: 11160, FullEvals: 247350, Duplicates: 43409, Invalid: 23806,
	}}
	sp := StudySpec{Objectives: StudyObjectives(), Fidelity: true, SearchWorkers: 1, Seed: 1}
	for _, workers := range []int{1, 2} {
		counter := &workCounter{}
		cache := mapper.NewCache()
		cache.SetPersister(counter)
		if _, err := RunStudy(sp, Options{Workers: workers, Cache: cache}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if counter.work != want {
			t.Errorf("workers=%d study work changed:\n got  %+v\n want %+v", workers, counter.work, want)
		}
	}
}
