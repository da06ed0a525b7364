package paradigms

import (
	"reflect"
	"strings"
	"testing"

	"paradigms/internal/logical"
	"paradigms/internal/sqlcheck"
)

// oracle holds a named query's expected result in both shapes a run can
// return: the typed oracle result for a hand-written kernel, and — for a
// name with a canonical SQL text — the same rows in logical.Result
// layout for a run through the SQL driver.
type oracle struct {
	typed any
	rows  [][]int64
}

func newOracle(t *testing.T, db *DB, q string) oracle {
	t.Helper()
	typed, err := Reference(db, q)
	if err != nil {
		t.Fatalf("%s/%s: no reference oracle: %v", db.Name, q, err)
	}
	o := oracle{typed: typed}
	if _, ok := logical.SQLText(db.Name, q); ok {
		o.rows = sqlcheck.RefRows(db, q)
	}
	return o
}

// matches compares a run's result with the oracle, bit-exactly and in
// order (every canonical text has a total-order ORDER BY or one row).
func (o oracle) matches(got any) bool {
	if res, ok := got.(*logical.Result); ok {
		return o.rows != nil && reflect.DeepEqual(res.Rows, o.rows)
	}
	return reflect.DeepEqual(got, o.typed)
}

// TestRegistryCrossValidation is the regression net for the named-query
// table: every name must produce its oracle's result on both engines —
// through its hand-written kernel or through the SQL driver — and on the
// hybrid for every name with a canonical SQL text, across vector sizes
// (1 = degenerate tuple-at-a-time, 7 = odd non-divisor, 1000 = default,
// 4096 = several morsel fractions) and worker counts. Typer ignores the
// vector size, so it runs once per worker count.
func TestRegistryCrossValidation(t *testing.T) {
	tpchDB := GenerateTPCH(0.02, 0)
	ssbDB := GenerateSSB(0.02, 0)
	for _, db := range []*DB{tpchDB, ssbDB} {
		for _, q := range Queries(db) {
			want := newOracle(t, db, q)
			for _, workers := range []int{1, 4} {
				check := func(eng Engine, vec int) {
					got, err := Run(db, eng, q, Options{Workers: workers, VectorSize: vec})
					if err != nil {
						t.Fatalf("%s/%s %s w=%d vec=%d: %v", db.Name, q, eng, workers, vec, err)
					}
					if !want.matches(got) {
						t.Errorf("%s/%s %s w=%d vec=%d differs from reference", db.Name, q, eng, workers, vec)
					}
				}
				check(Typer, 0)
				for _, vec := range []int{1, 7, 1000, 4096} {
					check(Tectorwise, vec)
					if want.rows != nil {
						check(Hybrid, vec)
					}
				}
			}
		}
	}
}

// TestHybridNamedQueries: the hybrid runs a named query through its
// canonical SQL text, and a name without one fails with an error that
// names the query and the engines that do run it.
func TestHybridNamedQueries(t *testing.T) {
	tpchDB, ssbDB := sqlDBs()
	res, err := Run(tpchDB, Hybrid, "Q6", Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rows, want := res.(*logical.Result).Rows, sqlcheck.RefRows(tpchDB, "Q6"); !reflect.DeepEqual(rows, want) {
		t.Errorf("hybrid Q6 = %v, want %v", rows, want)
	}
	for _, c := range []struct {
		db *DB
		q  string
	}{{tpchDB, "Q1"}, {tpchDB, "Q9"}, {ssbDB, "Q3.1"}, {ssbDB, "Q4.1"}} {
		_, err := Run(c.db, Hybrid, c.q, Options{})
		if err == nil {
			t.Errorf("hybrid %s: no error", c.q)
			continue
		}
		for _, want := range []string{c.q, "hybrid", "typer, tectorwise"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("hybrid %s error %q does not mention %q", c.q, err, want)
			}
		}
	}
}

// TestEnginesCoverSameCatalog: every named query runs on both engines
// and has a reference oracle — a query present on one side only would
// silently break the paradigm comparison.
func TestEnginesCoverSameCatalog(t *testing.T) {
	tpchDB := GenerateTPCH(0.01, 0)
	ssbDB := GenerateSSB(0.01, 0)
	for _, db := range []*DB{tpchDB, ssbDB} {
		for _, q := range Queries(db) {
			for _, eng := range []Engine{Typer, Tectorwise} {
				if _, err := Run(db, eng, q, Options{Workers: 1}); err != nil {
					t.Errorf("%s/%s not runnable on %s: %v", db.Name, q, eng, err)
				}
			}
			if _, err := Reference(db, q); err != nil {
				t.Errorf("%s/%s has no reference oracle: %v", db.Name, q, err)
			}
		}
	}
}
