package mapper

import (
	"fmt"
	"math/rand"
	"testing"

	"photoloop/internal/arch"
	"photoloop/internal/components"
	"photoloop/internal/mapping"
	"photoloop/internal/model"
	"photoloop/internal/workload"
)

// updatelessArch is testArch whose global buffer cannot accumulate: its
// memory has no update action, so FinishStaged fails exactly on the
// mappings that send read-modify-write partial sums to it (reduction
// loops above the register file) while the bound, which charges an
// unresolvable action nothing, still stages them. Pruning decisions that
// differ per objective then break some objectives' delta chains and not
// others'.
func updatelessArch(t *testing.T) *arch.Arch {
	t.Helper()
	a := testArch(t, 1<<20)
	a.Name = "updateless"
	lib := components.NewLibrary()
	for _, name := range []string{"DRAM", "Reg"} {
		c, err := a.Lib.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		lib.MustAdd(c)
	}
	lib.MustAdd(components.NewBase("Buf", "sram", map[string]float64{
		components.ActionRead: 1, components.ActionWrite: 1.2,
	}, 0, 0))
	a.Lib = lib
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	return a
}

// randLayer draws a small conv or FC layer.
func randLayer(rng *rand.Rand, name string) workload.Layer {
	pick := func(vs ...int) int { return vs[rng.Intn(len(vs))] }
	if rng.Intn(3) == 0 {
		return workload.NewFC(name, pick(1, 2), pick(32, 48, 64), pick(64, 96, 128))
	}
	r := pick(1, 3)
	return workload.NewConv(name, pick(1, 2), pick(16, 24, 32), pick(8, 12, 16),
		pick(7, 8, 14), pick(7, 8, 14), r, r, pick(1, 2), r/2)
}

// TestSearchObjectivesMatchesSeparate pins the shared exploration: every
// objective's Best from one SearchObjectives call — mapping, full-ledger
// Result, Evaluations and Stats — equals a separate Search for that
// objective, on electrical, photonic and failing-finish architectures,
// random layers, 1-3 search workers, with and without seeds, with
// validation on and off, and for objective subsets in any order,
// duplicates included.
func TestSearchObjectivesMatchesSeparate(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	archs := []*arch.Arch{
		testArch(t, int64(1)<<(14+rng.Intn(8))),
		photonicTestArch(t),
		updatelessArch(t),
	}
	groups := [][]Objective{
		{MinEnergy, MinDelay, MinEDP},
		{MinEDP, MinDelay, MinEnergy},
		{MinDelay, MinEnergy},
		{MinEnergy, MinEnergy},
		{MinEDP, MinEnergy, MinEDP},
	}
	finishFailures := 0
	for _, a := range archs {
		s, err := NewSession(a)
		if err != nil {
			t.Fatal(err)
		}
		for li := 0; li < 2; li++ {
			l := randLayer(rng, fmt.Sprintf("l%d", li))
			if a.Name == "updateless" {
				// Few input channels and no filter taps: a minority of
				// draws put a reduction loop above the register file, so
				// failed finishes sit between successful ones.
				l = workload.NewConv(fmt.Sprintf("pw%d", li), 1, 32, 2+2*li, 14, 14, 1, 1, 1, 0)
			}
			finishFailures += countFinishFailures(t, s, &l)
			// Seeds: the canonical all-outer mapping and a random draw.
			outer := mapping.New(a)
			outerInto(a, outer, &l, s.assignments[0], s.minLv)
			drawn := mapping.New(a)
			cands := s.drawCandidates(new(drawArena), &l, rand.New(rand.NewSource(int64(li))), 1, a.NumLevels())
			s.materialize(drawn, &cands[0], false)
			seeds := SeedList([]*mapping.Mapping{outer, drawn})
			for _, workers := range []int{1, 2, 3} {
				for _, seeded := range []bool{false, true} {
					opts := Options{Budget: 240 + 40*li, Seed: int64(3 + workers), Workers: workers}
					if seeded {
						opts.Seeds = seeds
					}
					separate := map[Objective]*Best{}
					for _, objs := range groups {
						label := fmt.Sprintf("%s/%s/w%d/seeded=%v/%v", a.Name, l.Name, workers, seeded, objs)
						got, err := s.SearchObjectives(&l, opts, objs)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						for i, obj := range objs {
							want := separate[obj]
							if want == nil {
								one := opts
								one.Objective = obj
								if want, err = s.Search(&l, one); err != nil {
									t.Fatalf("%s: %v", label, err)
								}
								separate[obj] = want
							}
							sameBest(t, fmt.Sprintf("%s[%d]", label, i), got[i], want)
						}
					}
				}
			}
		}
	}
	if finishFailures == 0 {
		t.Fatal("no FinishStaged failure: the per-objective delta chains never diverged")
	}
}

// countFinishFailures evaluates random draws of the layer and counts the
// ones the model rejects after staging them; it fails the test when
// every draw fails, which would leave the search nothing to retain.
func countFinishFailures(t *testing.T, s *Session, l *workload.Layer) int {
	t.Helper()
	c, err := s.eng.Compile(l)
	if err != nil {
		t.Fatal(err)
	}
	const k = 200
	cands := s.drawCandidates(new(drawArena), l, rand.New(rand.NewSource(1)), k, s.a.NumLevels())
	m := mapping.New(s.a)
	failed := 0
	for i := range cands {
		s.materialize(m, &cands[i], false)
		if _, err := c.Evaluate(m, model.Options{SkipValidate: true}); err != nil {
			failed++
		}
	}
	if failed == k {
		t.Fatalf("%s: every draw fails to evaluate", s.a.Name)
	}
	return failed
}
