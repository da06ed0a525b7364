// Package sqlcheck is the differential-testing toolkit of the ad-hoc
// SQL subsystem — a test-support extension beyond the paper's fixed
// query catalog. It supplies the three ingredients of the cross-engine
// differential harness: a seeded random SQL generator over the catalog
// schemas (Generate), a trusted slow oracle that evaluates a bound
// SELECT naively and independently of both lowering backends (Oracle),
// and schema-compatible mini databases with hand-picked edge-case
// values (MiniTPCH, MiniSSB, EmptyMinis) shared by the operator-layer
// and compiled-backend edge tests. The package deliberately imports
// neither internal/plan nor internal/logical, so any package's tests —
// including theirs — can use it without import cycles; the harness that
// actually runs the two engines lives with the repo-root tests.
package sqlcheck

import "sort"

// Canon sorts result rows lexicographically — the multiset-comparison
// form of the differential harness. Engines may emit rows in any order
// (morsel races, group-hash order); under a total-order ORDER BY plus
// LIMIT the surviving multiset is deterministic, and without LIMIT the
// multiset is the full result — so canonical equality is exactly the
// invariant every backend must satisfy.
func Canon(rows [][]int64) [][]int64 {
	out := make([][]int64, len(rows))
	copy(out, rows)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
	return out
}

// SameRows reports whether two row sets are the same multiset: both
// sides are canonicalized here, so callers cannot compare raw engine
// output positionally by accident (row order without a total-order
// ORDER BY is undefined; DESIGN.md §8 "Result semantics"). Sides that
// already agree positionally — pre-canonicalized callers — skip the
// sort.
func SameRows(a, b [][]int64) bool {
	if len(a) != len(b) {
		return false
	}
	return equalRows(a, b) || equalRows(Canon(a), Canon(b))
}

// equalRows compares two equally long row sets positionally.
func equalRows(a, b [][]int64) bool {
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}
