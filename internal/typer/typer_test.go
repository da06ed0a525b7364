package typer

import (
	"context"
	"reflect"
	"testing"

	"paradigms/internal/hashtable"
	"paradigms/internal/queries"
	"paradigms/internal/ssb"
	"paradigms/internal/tpch"
)

func TestTPCHMatchesReference(t *testing.T) {
	for _, sf := range []float64{0.01, 0.05} {
		db := tpch.Generate(sf, 0)
		for _, threads := range []int{1, 4} {
			if got, want := Q1Ctx(context.Background(), db, threads), queries.RefQ1(db); !reflect.DeepEqual(got, want) {
				t.Errorf("sf=%v threads=%d Q1 mismatch:\n got %v\nwant %v", sf, threads, got, want)
			}
			if got, want := Q9Ctx(context.Background(), db, threads), queries.RefQ9(db); !reflect.DeepEqual(got, want) {
				t.Errorf("sf=%v threads=%d Q9 mismatch:\n got %d rows want %d rows", sf, threads, len(got), len(want))
			}
			if got, want := Q18Ctx(context.Background(), db, threads), queries.RefQ18(db); !reflect.DeepEqual(got, want) {
				t.Errorf("sf=%v threads=%d Q18 mismatch:\n got %v\nwant %v", sf, threads, got, want)
			}
		}
	}
}

func TestSSBMatchesReference(t *testing.T) {
	for _, sf := range []float64{0.01, 0.05} {
		db := ssb.Generate(sf, 0)
		for _, threads := range []int{1, 4} {
			if got, want := SSBQ31Ctx(context.Background(), db, threads), queries.RefSSBQ31(db); !reflect.DeepEqual(got, want) {
				t.Errorf("sf=%v threads=%d Q3.1 mismatch:\n got %v\nwant %v", sf, threads, got, want)
			}
			if got, want := SSBQ41Ctx(context.Background(), db, threads), queries.RefSSBQ41(db); !reflect.DeepEqual(got, want) {
				t.Errorf("sf=%v threads=%d Q4.1 mismatch:\n got %v\nwant %v", sf, threads, got, want)
			}
		}
	}
}

func TestQ18PreAggOverflowPath(t *testing.T) {
	// At sf 0.05 lineitem has ~300K rows and ~75K distinct orderkeys,
	// well above hashtable.PreAggCapacity, so the spill path is exercised; this
	// test documents that expectation so a capacity change does not
	// silently skip the overflow path.
	db := tpch.Generate(0.05, 0)
	if db.Rel("orders").Rows() <= hashtable.PreAggCapacity {
		t.Fatalf("test premise broken: %d orders <= hashtable.PreAggCapacity %d",
			db.Rel("orders").Rows(), hashtable.PreAggCapacity)
	}
	got, want := Q18Ctx(context.Background(), db, 3), queries.RefQ18(db)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Q18 under spill pressure mismatch")
	}
}
