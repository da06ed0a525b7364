package tw

import (
	"context"
	"reflect"
	"testing"

	"paradigms/internal/queries"
	"paradigms/internal/ssb"
	"paradigms/internal/tpch"
	"paradigms/internal/vector"
)

func TestTPCHMatchesReference(t *testing.T) {
	// Q6, Q3, Q18 (and Q5) are plan-assembled and tested in
	// internal/plan; only the monolithic queries remain here.
	for _, sf := range []float64{0.01, 0.05} {
		db := tpch.Generate(sf, 0)
		for _, threads := range []int{1, 4} {
			for _, vec := range []int{1000} {
				if got, want := Q1Ctx(context.Background(), db, threads, vec), queries.RefQ1(db); !reflect.DeepEqual(got, want) {
					t.Errorf("sf=%v t=%d Q1 mismatch:\n got %v\nwant %v", sf, threads, got, want)
				}
				if got, want := Q9Ctx(context.Background(), db, threads, vec), queries.RefQ9(db); !reflect.DeepEqual(got, want) {
					t.Errorf("sf=%v t=%d Q9 mismatch (%d vs %d rows)", sf, threads, len(got), len(want))
				}
			}
		}
	}
}

func TestVectorSizesProduceIdenticalResults(t *testing.T) {
	// Fig. 5 sweeps vector sizes from 1 to full materialization; results
	// must be identical at every size.
	db := tpch.Generate(0.02, 0)
	wantQ1 := queries.RefQ1(db)
	wantQ9 := queries.RefQ9(db)
	for _, vec := range []int{1, 7, 64, 1000, 65536, db.Rel("lineitem").Rows()} {
		if got := Q1Ctx(context.Background(), db, 2, vec); !reflect.DeepEqual(got, wantQ1) {
			t.Errorf("vec=%d Q1 mismatch", vec)
		}
		if got := Q9Ctx(context.Background(), db, 2, vec); !reflect.DeepEqual(got, wantQ9) {
			t.Errorf("vec=%d Q9 mismatch", vec)
		}
	}
}

func TestSSBMatchesReference(t *testing.T) {
	for _, sf := range []float64{0.01, 0.05} {
		db := ssb.Generate(sf, 0)
		for _, threads := range []int{1, 4} {
			if got, want := SSBQ31Ctx(context.Background(), db, threads, 0), queries.RefSSBQ31(db); !reflect.DeepEqual(got, want) {
				t.Errorf("sf=%v t=%d Q3.1 mismatch:\n got %v\nwant %v", sf, threads, got, want)
			}
			if got, want := SSBQ41Ctx(context.Background(), db, threads, 0), queries.RefSSBQ41(db); !reflect.DeepEqual(got, want) {
				t.Errorf("sf=%v t=%d Q4.1 mismatch:\n got %v\nwant %v", sf, threads, got, want)
			}
		}
	}
}

func TestScanServesWholeRelationOnce(t *testing.T) {
	disp := newTestDispatcher(10_000)
	scan := NewScan(disp, 333)
	seen := make([]bool, 10_000)
	for {
		n := scan.Next()
		if n == 0 {
			break
		}
		for i := scan.Base; i < scan.Base+n; i++ {
			if seen[i] {
				t.Fatalf("tuple %d served twice", i)
			}
			seen[i] = true
		}
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("tuple %d never served", i)
		}
	}
}

func TestScanVectorsRespectSizeAndMorsels(t *testing.T) {
	disp := newTestDispatcher(1000)
	scan := NewScan(disp, vector.DefaultSize)
	n := scan.Next()
	if n != 1000 {
		t.Fatalf("first vector = %d", n)
	}
	if scan.Next() != 0 {
		t.Fatal("scan did not exhaust")
	}
}
