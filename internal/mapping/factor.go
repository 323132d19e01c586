package mapping

import (
	"sort"
	"sync"

	"photoloop/internal/workload"
)

// Divisors returns the positive divisors of n in ascending order.
func Divisors(n int) []int {
	if n < 1 {
		return nil
	}
	var small, large []int
	for d := 1; d*d <= n; d++ {
		if n%d == 0 {
			small = append(small, d)
			if d != n/d {
				large = append(large, n/d)
			}
		}
	}
	for i := len(large) - 1; i >= 0; i-- {
		small = append(small, large[i])
	}
	return small
}

// FactorSplits enumerates all ordered k-tuples of positive integers whose
// product is exactly n (divisor-constrained perfect factorizations). The
// count grows combinatorially; intended for small n or small k.
func FactorSplits(n, k int) [][]int {
	if n < 1 || k < 1 {
		return nil
	}
	var out [][]int
	cur := make([]int, k)
	var rec func(rem, idx int)
	rec = func(rem, idx int) {
		if idx == k-1 {
			cur[idx] = rem
			out = append(out, append([]int(nil), cur...))
			return
		}
		for _, d := range Divisors(rem) {
			cur[idx] = d
			rec(rem/d, idx+1)
		}
	}
	rec(n, 0)
	return out
}

// paddedCandidatesCache memoizes PaddedCandidates — the mapper asks for
// the same bounds millions of times across random draws.
var paddedCandidatesCache sync.Map // int -> []int

// PaddedCandidates returns candidate tile factors for covering bound n with
// possible padding: every divisor of n, plus ceiling-based factors that
// overshoot (each distinct value of ceil(n/j) for j = 1..n). The result is
// sorted ascending and deduplicated. These are the factor choices a mapper
// should consider at a single level — any other factor is dominated by one
// of these (same coverage, no smaller padding). The result is cached and
// shared — callers must not modify it.
func PaddedCandidates(n int) []int {
	if n < 1 {
		return nil
	}
	if cached, ok := paddedCandidatesCache.Load(n); ok {
		return cached.([]int)
	}
	set := map[int]bool{}
	for _, d := range Divisors(n) {
		set[d] = true
	}
	for j := 1; j <= n; j++ {
		set[workload.CeilDiv(n, j)] = true
	}
	out := make([]int, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Ints(out)
	paddedCandidatesCache.Store(n, out)
	return out
}
