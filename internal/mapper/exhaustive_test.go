package mapper

import (
	"errors"
	"fmt"
	"math"

	"photoloop/internal/arch"
	"photoloop/internal/mapping"
	"photoloop/internal/model"
	"photoloop/internal/workload"
)

// Exhaustive enumerates every combination of spatial assignment, divisor
// split and candidate permutation for small problems, guaranteeing the
// optimum within that (restricted-permutation) space. It errors if the
// space exceeds maxEvals.
func Exhaustive(a *arch.Arch, l *workload.Layer, obj Objective, maxEvals int) (*Best, error) {
	s, err := NewSession(a)
	if err != nil {
		return nil, err
	}
	return s.Exhaustive(l, obj, maxEvals)
}

// Exhaustive runs the exhaustive search on the session's architecture.
func (s *Session) Exhaustive(l *workload.Layer, obj Objective, maxEvals int) (*Best, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	if maxEvals <= 0 {
		maxEvals = 200000
	}
	a := s.a
	n := a.NumLevels()
	c, err := s.eng.Compile(l)
	if err != nil {
		return nil, err
	}

	// Estimate the space.
	est := float64(len(s.assignments)) * math.Pow(float64(len(permCandidates)), float64(n))
	for _, d := range workload.AllDims() {
		splits := len(mapping.FactorSplits(l.Bound(d), n))
		if splits > 0 {
			est *= float64(splits)
		}
		if est > float64(maxEvals)*100 {
			return nil, fmt.Errorf("mapper: exhaustive space too large (~%g)", est)
		}
	}

	w := &exhaustiveWalk{
		a: a, l: l, c: c, obj: obj, maxEvals: maxEvals,
		scratch: s.eng.NewScratch(),
		res:     &model.Result{},
	}
	for _, assign := range s.assignments {
		base := mapping.New(a)
		applyAssignment(a, base, assign)
		rem := assignmentRemaining(a, assign, l)
		dimSplits := make([][][]int, workload.NumDims)
		for _, d := range workload.AllDims() {
			dimSplits[d] = mapping.FactorSplits(rem[d], n)
		}
		var walk func(d int, m *mapping.Mapping)
		walk = func(d int, m *mapping.Mapping) {
			if w.evals > maxEvals {
				return
			}
			if d == int(workload.NumDims) {
				w.walkPerms(m, 0)
				return
			}
			for _, split := range dimSplits[d] {
				cm := m.Clone()
				for i := 0; i < n; i++ {
					cm.Levels[i].Temporal[workload.Dim(d)] = split[i]
				}
				walk(d+1, cm)
			}
		}
		walk(0, base)
	}
	if w.best == nil {
		return nil, errors.New("mapper: exhaustive search found no valid mapping")
	}
	w.best.Evaluations = w.evals

	// Re-evaluate the winner with the full ledger.
	full, err := c.Evaluate(w.best.Mapping, model.Options{SkipValidate: true, FullLedger: true})
	if err != nil {
		return nil, err
	}
	w.best.Result = full
	return w.best, nil
}

// exhaustiveWalk carries the shared state of one exhaustive enumeration.
type exhaustiveWalk struct {
	a        *arch.Arch
	l        *workload.Layer
	c        *model.Compiled
	obj      Objective
	maxEvals int
	scratch  *model.Scratch
	res      *model.Result
	best     *Best
	evals    int
}

func (w *exhaustiveWalk) walkPerms(m *mapping.Mapping, level int) {
	if w.evals > w.maxEvals {
		return
	}
	if level == w.a.NumLevels() {
		w.evals++
		if err := m.Validate(w.a, w.l); err != nil {
			return
		}
		if err := w.c.EvaluateInto(w.scratch, m, w.res, model.Options{SkipValidate: true}); err != nil {
			return
		}
		if w.best == nil || betterEval(w.obj, w.res, m, w.best) {
			w.best = &Best{Mapping: m.Clone(), Result: w.res.Clone()}
		}
		return
	}
	// Only permute levels that actually have multiple loops.
	active := 0
	for _, d := range workload.AllDims() {
		if m.Levels[level].Temporal[d] > 1 {
			active++
		}
	}
	if active <= 1 {
		w.walkPerms(m, level+1)
		return
	}
	for _, cand := range permCandidates {
		m.Levels[level].Perm = append([]workload.Dim(nil), cand...)
		w.walkPerms(m, level+1)
	}
}
