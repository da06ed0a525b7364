package compiled

import (
	"context"
	"testing"

	"paradigms/internal/logical"
	"paradigms/internal/sqlcheck"
	"paradigms/internal/storage"
)

// Edge-case parity for the compiled backend, reusing the operator
// layer's scenarios (internal/sqlcheck minis): empty base relations
// (workers outnumber morsels, builds prepare zero-row directories),
// all-false filter cascades (every fused loop rejects every row), and
// zero-group aggregations (spill partitions merge empty). Every
// canonical SQL text runs on the compiled backend AND the vectorized
// backend and both are asserted against the naive oracle — the same
// cases, the same oracles, both engines.

func checkEdge(t *testing.T, label string, tp, sb *storage.Database) {
	t.Helper()
	ctx := context.Background()
	for _, db := range []*storage.Database{tp, sb} {
		names := append(logical.SQLQueries(db.Name), extraEdgeQueries(db.Name)...)
		for _, name := range names {
			text, ok := logical.SQLText(db.Name, name)
			if !ok {
				text = name // extra queries are raw SQL
			}
			want, err := sqlcheck.Oracle(db, text)
			if err != nil {
				t.Fatalf("%s %s/%s: oracle: %v", label, db.Name, name, err)
			}
			wantC := sqlcheck.Canon(want)
			for _, workers := range []int{1, 4} {
				res, err := runSQL(ctx, db, text, workers)
				if err != nil {
					t.Fatalf("%s %s/%s w=%d compiled: %v", label, db.Name, name, workers, err)
				}
				if !sqlcheck.SameRows(sqlcheck.Canon(res.Rows), wantC) {
					t.Errorf("%s %s/%s w=%d: compiled mismatch\n got %v\nwant %v",
						label, db.Name, name, workers, trunc(res.Rows), trunc(want))
				}
				pl, err := logical.Prepare(db, text)
				if err != nil {
					t.Fatalf("%s %s/%s: prepare: %v", label, db.Name, name, err)
				}
				for _, vec := range []int{1, 1000} {
					lres, err := pl.Execute(ctx, workers, vec)
					if err != nil {
						t.Fatalf("%s %s/%s w=%d vec=%d vectorized: %v", label, db.Name, name, workers, vec, err)
					}
					if !sqlcheck.SameRows(sqlcheck.Canon(lres.Rows), wantC) {
						t.Errorf("%s %s/%s w=%d vec=%d: vectorized mismatch\n got %v\nwant %v",
							label, db.Name, name, workers, vec, trunc(lres.Rows), trunc(want))
					}
				}
			}
		}
	}
}

// extraEdgeQueries adds shapes the canonical texts miss: global
// aggregates over empty/filtered-out inputs, grouped counts, plain
// projections.
func extraEdgeQueries(dataset string) []string {
	if dataset == "tpch" {
		return []string{
			`select count(*), sum(o_totalprice), min(o_orderdate), max(o_totalprice) from orders`,
			`select o_custkey, count(*) from orders group by o_custkey`,
			`select c_custkey, c_nationkey from customer order by 1, 2 limit 5`,
			`select sum(l_extendedprice) from lineitem where 1 = 2`,
		}
	}
	return []string{
		`select count(*), max(lo_revenue) from lineorder`,
		`select d_year, count(*) from lineorder, date where lo_orderdate = d_datekey group by d_year`,
	}
}

func TestCompiledEmptyRelations(t *testing.T) {
	tp, sb := sqlcheck.EmptyMinis()
	checkEdge(t, "empty", tp, sb)
}

func TestCompiledAllFalseSelections(t *testing.T) {
	checkEdge(t, "all-false", sqlcheck.MiniTPCH(10, false), sqlcheck.MiniSSB(10, false))
}

func TestCompiledTinyQualifyingSets(t *testing.T) {
	checkEdge(t, "tiny", sqlcheck.MiniTPCH(7, true), sqlcheck.MiniSSB(7, true))
}
