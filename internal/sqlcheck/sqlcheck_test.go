package sqlcheck

import (
	"math/rand"
	"sync"
	"testing"

	"paradigms/internal/logical"
	"paradigms/internal/ssb"
	"paradigms/internal/storage"
	"paradigms/internal/tpch"
)

var (
	genOnce sync.Once
	genTPCH *storage.Database
	genSSB  *storage.Database
)

func genDBs() (*storage.Database, *storage.Database) {
	genOnce.Do(func() {
		genTPCH = tpch.Generate(0.01, 0)
		genSSB = ssb.Generate(0.01, 0)
	})
	return genTPCH, genSSB
}

// TestOracleMatchesHandOracles: the naive SQL oracle agrees with the
// repo's hand-written reference oracles on the canonical benchmark
// texts — the oracle's own trust anchor.
func TestOracleMatchesHandOracles(t *testing.T) {
	tp, sb := genDBs()
	for _, db := range []*storage.Database{tp, sb} {
		for _, name := range logical.SQLQueries(db.Name) {
			text, _ := logical.SQLText(db.Name, name)
			got, err := Oracle(db, text)
			if err != nil {
				t.Fatalf("%s/%s: %v", db.Name, name, err)
			}
			want := RefRows(db, name)
			if !SameRows(Canon(got), Canon(want)) {
				t.Errorf("%s/%s: oracle mismatch\n got %v\nwant %v", db.Name, name, head(got), head(want))
			}
		}
	}
}

// TestGeneratorPlans: every generated query in a 300-seed sweep parses,
// binds, and plans — generator output stays inside the planner's
// supported subset, so a corpus failure always means an executor bug,
// not a rejected query.
func TestGeneratorPlans(t *testing.T) {
	tp, sb := genDBs()
	for seed := int64(0); seed < 300; seed++ {
		db := tp
		if seed%2 == 1 {
			db = sb
		}
		text := Generate(rand.New(rand.NewSource(seed)), db)
		if _, err := logical.Prepare(db, text); err != nil {
			t.Errorf("seed %d: %q does not plan: %v", seed, text, err)
		}
	}
}

// TestGeneratorDeterministic: the same seed yields the same SQL text.
func TestGeneratorDeterministic(t *testing.T) {
	tp, _ := genDBs()
	a := Generate(rand.New(rand.NewSource(7)), tp)
	b := Generate(rand.New(rand.NewSource(7)), tp)
	if a != b {
		t.Errorf("seed 7 produced different texts:\n%s\n%s", a, b)
	}
}

func head(rows [][]int64) [][]int64 {
	if len(rows) > 6 {
		return rows[:6]
	}
	return rows
}

// TestSameRowsIsOrderBlind: SameRows compares multisets whatever order
// its arguments arrive in — it cannot be misused on raw engine output —
// and still tells different multisets apart.
func TestSameRowsIsOrderBlind(t *testing.T) {
	a := [][]int64{{3, 1}, {1, 2}, {1, 2}, {2, 9}}
	b := [][]int64{{1, 2}, {2, 9}, {3, 1}, {1, 2}}
	if !SameRows(a, b) || !SameRows(b, a) || !SameRows(a, a) || !SameRows(nil, [][]int64{}) {
		t.Error("permuted row sets compared unequal")
	}
	if a[0][0] != 3 || b[0][0] != 1 {
		t.Error("SameRows reordered its arguments")
	}
	for _, c := range [][][]int64{
		{{3, 1}, {1, 2}, {2, 9}, {2, 9}}, // same rows, other multiplicities
		{{3, 1}, {1, 2}, {1, 2}},         // one row short
		{{3, 1}, {1, 2}, {1, 2}, {2}},    // a narrower row
	} {
		if SameRows(a, c) {
			t.Errorf("SameRows(%v, %v) = true", a, c)
		}
	}
}
