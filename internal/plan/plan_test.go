package plan

import (
	"context"
	"reflect"
	"testing"

	"paradigms/internal/queries"
	"paradigms/internal/ssb"
	"paradigms/internal/tpch"
)

func TestPlanQueriesMatchReference(t *testing.T) {
	for _, sf := range []float64{0.01, 0.05} {
		db := tpch.Generate(sf, 0)
		ssbDB := ssb.Generate(sf, 0)
		for _, threads := range []int{1, 4} {
			for _, vec := range []int{1, 7, 1000} {
				if got, want := Q18Ctx(context.Background(), db, threads, vec), queries.RefQ18(db); !reflect.DeepEqual(got, want) {
					t.Errorf("sf=%v t=%d vec=%d Q18 mismatch:\n got %v\nwant %v", sf, threads, vec, got, want)
				}
				if got, want := Q5Ctx(context.Background(), db, threads, vec), queries.RefQ5(db); !reflect.DeepEqual(got, want) {
					t.Errorf("sf=%v t=%d vec=%d Q5 mismatch:\n got %v\nwant %v", sf, threads, vec, got, want)
				}
				if got, want := SSBQ21Ctx(context.Background(), ssbDB, threads, vec), queries.RefSSBQ21(ssbDB); !reflect.DeepEqual(got, want) {
					t.Errorf("sf=%v t=%d vec=%d Q2.1 mismatch:\n got %v\nwant %v", sf, threads, vec, got, want)
				}
			}
		}
	}
}

// TestLargeVectorSizes keeps the Fig. 5 extremes covered for the hand
// plans: vector sizes above the morsel size and full materialization
// stress Scan windowing and the vec-sized probe buffers in ways the
// small-vector sweeps cannot. (internal/logical's TestSQLLargeVectorSizes
// does the same for the lowered plans.)
func TestLargeVectorSizes(t *testing.T) {
	db := tpch.Generate(0.02, 0)
	wantQ18 := queries.RefQ18(db)
	wantQ5 := queries.RefQ5(db)
	for _, vec := range []int{65536, db.Rel("lineitem").Rows()} {
		if got := Q18Ctx(context.Background(), db, 2, vec); !reflect.DeepEqual(got, wantQ18) {
			t.Errorf("vec=%d Q18 mismatch", vec)
		}
		if got := Q5Ctx(context.Background(), db, 2, vec); !reflect.DeepEqual(got, wantQ5) {
			t.Errorf("vec=%d Q5 mismatch", vec)
		}
	}
}

// TestPlanCancellation: a canceled context drains the plan executor's
// workers without deadlock and leaves a partial (discardable) result —
// the same contract the monoliths honored per query, now provided once
// by the executor.
func TestPlanCancellation(t *testing.T) {
	db := tpch.Generate(0.01, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Must return promptly; result is meaningless and discarded.
	_ = Q18Ctx(ctx, db, 4, 0)
	_ = Q5Ctx(ctx, db, 4, 0)
}
