package paradigms

import (
	"strings"
	"testing"
)

// TestEnginesAgreeEverywhere is the paper's core methodological invariant:
// both engines run the same physical plans on the same data structures, so
// their results must be identical — across scale factors, thread counts,
// and (for Tectorwise) vector sizes — and must match the independent
// reference implementation.
func TestEnginesAgreeEverywhere(t *testing.T) {
	for _, sf := range []float64{0.01, 0.1} {
		tpchDB := GenerateTPCH(sf, 0)
		ssbDB := GenerateSSB(sf, 0)
		for _, db := range []*DB{tpchDB, ssbDB} {
			for _, q := range Queries(db) {
				want := newOracle(t, db, q)
				for _, workers := range []int{1, 3, 8} {
					got, err := Run(db, Typer, q, Options{Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					if !want.matches(got) {
						t.Errorf("sf=%v %s/%s workers=%d: Typer result differs from reference",
							sf, db.Name, q, workers)
					}
					for _, vec := range []int{1000, 64} {
						got, err := Run(db, Tectorwise, q, Options{Workers: workers, VectorSize: vec})
						if err != nil {
							t.Fatal(err)
						}
						if !want.matches(got) {
							t.Errorf("sf=%v %s/%s workers=%d vec=%d: Tectorwise result differs",
								sf, db.Name, q, workers, vec)
						}
					}
				}
			}
		}
	}
}

func TestRunRejectsUnknown(t *testing.T) {
	db := GenerateTPCH(0.01, 0)
	_, err := Run(db, Typer, "Q42", Options{})
	if err == nil {
		t.Fatal("expected error for unknown query")
	}
	// The error must name the engine and list what that engine actually
	// has registered for this dataset, not just blame the database.
	for _, want := range []string{"typer", "tpch", "Q1", "Q18", "Q5"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("unknown-query error %q does not mention %q", err, want)
		}
	}
	if _, err := Run(db, Engine("volcano"), "Q1", Options{}); err == nil ||
		!strings.Contains(err.Error(), "unknown engine") {
		t.Errorf("expected unknown-engine error, got %v", err)
	}
	// "reference" names the oracles, not an engine: they are
	// single-threaded and uncancelable, and reached through Reference.
	if _, err := Run(db, Engine("reference"), "Q1", Options{}); err == nil ||
		!strings.Contains(err.Error(), "unknown engine") {
		t.Errorf("expected unknown-engine error for reference, got %v", err)
	}
	if _, err := Reference(db, "Q42"); err == nil {
		t.Error("expected error for unknown reference query")
	}
}

func TestScannedTuples(t *testing.T) {
	db := GenerateTPCH(0.01, 0)
	li := int64(db.Rel("lineitem").Rows())
	if got := ScannedTuples(db, "Q1"); got != li {
		t.Errorf("Q1 scanned = %d, want %d", got, li)
	}
	q3 := li + int64(db.Rel("orders").Rows()) + int64(db.Rel("customer").Rows())
	if got := ScannedTuples(db, "Q3"); got != q3 {
		t.Errorf("Q3 scanned = %d, want %d", got, q3)
	}
}

func TestQueriesList(t *testing.T) {
	tpchDB := GenerateTPCH(0.01, 0)
	ssbDB := GenerateSSB(0.01, 0)
	// Paper order first, extension queries (Q5) after.
	if got := Queries(tpchDB); len(got) != 6 || got[0] != "Q1" || got[5] != "Q5" {
		t.Errorf("TPC-H queries = %v", got)
	}
	if got := Queries(ssbDB); len(got) != 4 || got[0] != "Q1.1" {
		t.Errorf("SSB queries = %v", got)
	}
}
