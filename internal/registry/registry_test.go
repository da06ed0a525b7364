package registry

import (
	"reflect"
	"testing"

	"paradigms/internal/engine"
	"paradigms/internal/logical"
	"paradigms/internal/queries"
)

// TestTableLookupAndOrdering: Queries lists each dataset in canonical
// order — the paper's experiment subsets first, the extension query Q5
// after — and find resolves exactly the listed names.
func TestTableLookupAndOrdering(t *testing.T) {
	want := map[string][]string{
		"tpch": append(append([]string(nil), queries.TPCHQueries...), "Q5"),
		"ssb":  queries.SSBQueries,
	}
	for ds, names := range want {
		if got := Queries(ds); !reflect.DeepEqual(got, names) {
			t.Errorf("Queries(%s) = %v, want %v", ds, got, names)
		}
		for _, n := range names {
			if q := find(ds, n); q == nil || q.name != n {
				t.Errorf("find(%s, %s) = %v", ds, n, q)
			}
		}
	}
	if find("tpch", "Q1.1") != nil || Queries("nosuch") != nil {
		t.Error("lookup crosses datasets")
	}
}

// TestTableEntriesWellFormed: each (dataset, name) appears once, has an
// oracle, and runs on both engines — through a kernel or its SQL text.
func TestTableEntriesWellFormed(t *testing.T) {
	seen := map[[2]string]bool{}
	for _, q := range table {
		k := [2]string{q.dataset, q.name}
		if seen[k] {
			t.Errorf("%s/%s listed twice", q.dataset, q.name)
		}
		seen[k] = true
		if q.ref == nil {
			t.Errorf("%s/%s has no oracle", q.dataset, q.name)
		}
		_, hasSQL := logical.SQLText(q.dataset, q.name)
		for _, eng := range []string{engine.Typer, engine.Tectorwise} {
			if q.kernel(eng) == nil && !hasSQL {
				t.Errorf("%s/%s has neither a %s kernel nor SQL text", q.dataset, q.name, eng)
			}
		}
	}
}
