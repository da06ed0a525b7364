package paradigms

import (
	"strings"
	"testing"

	"paradigms/internal/compiled"
	"paradigms/internal/logical"
	"paradigms/internal/sqlcheck"
)

// TestFoldCases runs sqlcheck's row-free and classifier cases through the
// differential harness — every engine, worker count and vector size
// against the oracle, and through 2 shards on both backends — and
// checks from the compiled EXPLAIN that a case's final pipeline folds
// per block exactly when the case says so, so the fold, not the row
// loop, is what the grid compared.
func TestFoldCases(t *testing.T) {
	tpchDB, ssbDB := sqlDBs()
	for _, c := range sqlcheck.FoldCases {
		db := tpchDB
		if c.Dataset == "ssb" {
			db = ssbDB
		}
		pl, err := logical.Prepare(db, c.Text)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		ex, err := compiled.Explain(pl)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		lines := strings.Split(strings.TrimSpace(ex), "\n")
		if final := lines[len(lines)-1]; strings.HasSuffix(final, " fold") != c.Folds {
			t.Errorf("%s: final pipeline folds = %v, want %v:\n%s", c.Name, !c.Folds, c.Folds, ex)
		}
		checkDifferential(t, db, c.Text, fullGrid)
		checkSharded(t, db, c.Text, 2, nil)
	}
}
