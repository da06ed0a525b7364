package plan

import (
	"context"
	"reflect"
	"testing"

	"paradigms/internal/queries"
	"paradigms/internal/sqlcheck"
	"paradigms/internal/storage"
)

// Edge-case coverage for every hand-assembled plan (Q18, Q5, Q2.1):
// empty base relations (workers outnumber morsels, so most pipelines see
// no batch at all), all-false FilterChain selections (every vector dies
// in the cascade), and GroupBy sinks over zero surviving rows (spill
// partitions merge empty). Each scenario is
// asserted against the reference oracle on the same synthetic database.
// The mini databases live in internal/sqlcheck, shared with the
// compiled-backend edge suite so both engines face identical scenarios.

// checkAll runs every hand-assembled plan on the synthetic databases
// and compares against the oracles, across worker counts that exceed
// the morsel count and vector sizes from degenerate to default.
func checkAll(t *testing.T, label string, tp, sb *storage.Database) {
	t.Helper()
	for _, workers := range []int{1, 4} {
		for _, vec := range []int{1, 1000} {
			checkRows(t, label, "Q18", workers, vec, Q18Ctx(context.Background(), tp, workers, vec), queries.RefQ18(tp))
			checkRows(t, label, "Q5", workers, vec, Q5Ctx(context.Background(), tp, workers, vec), queries.RefQ5(tp))
			checkRows(t, label, "Q2.1", workers, vec, SSBQ21Ctx(context.Background(), sb, workers, vec), queries.RefSSBQ21(sb))
		}
	}
}

// checkRows compares slice results, treating empty and nil as equal
// (the interesting property here is "no rows", not nil-ness).
func checkRows[T any](t *testing.T, label, q string, workers, vec int, got, want []T) {
	t.Helper()
	if len(got) == 0 && len(want) == 0 {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s w=%d vec=%d %s mismatch:\n got %v\nwant %v", label, workers, vec, q, got, want)
	}
}

func TestPlanEmptyRelations(t *testing.T) {
	tp, sb := sqlcheck.EmptyMinis()
	checkAll(t, "empty", tp, sb)
}

func TestPlanAllFalseSelections(t *testing.T) {
	// Rows exist but no predicate passes: every FilterChain narrows to
	// zero, every downstream GroupBy merges zero groups, Q18's HAVING
	// table stays empty.
	checkAll(t, "all-false", sqlcheck.MiniTPCH(10, false), sqlcheck.MiniSSB(10, false))
}

func TestPlanTinyQualifyingSets(t *testing.T) {
	// A handful of qualifying rows with more workers than morsels:
	// some workers see empty batches while others aggregate real groups.
	checkAll(t, "tiny", sqlcheck.MiniTPCH(7, true), sqlcheck.MiniSSB(7, true))
}
