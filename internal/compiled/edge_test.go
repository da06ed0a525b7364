package compiled

import (
	"context"
	"testing"

	"paradigms/internal/exec"
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

// TestCompiledStagedLoop covers the fused loop's staged range filter
// (probeBlock-row blocks selected by the simd range kernels, survivors
// run tuple at a time) at morsel sizes that end a morsel before, on and
// after a block boundary, so blocks straddle morsel ends. Every shape
// must match the vectorized lowering and the oracle.
func TestCompiledStagedLoop(t *testing.T) {
	tp, _ := testDBs()
	db := tp[0.01]
	q5, _ := logical.SQLText("tpch", "Q5")
	cases := map[string]string{
		"64-bit bounds only": `select count(*), sum(l_extendedprice * l_discount) from lineitem
			where l_discount between 0.05 and 0.07 and l_quantity < 24`,
		"two 32-bit bounds, build side": `select c_nationkey, count(*), sum(o_totalprice) from customer, orders
			where c_custkey = o_custkey and c_custkey < 1100 and c_nationkey between 3 and 20
			group by c_nationkey`,
		"contradictory 32-bit bound": `select count(*), sum(l_quantity) from lineitem
			where l_shipdate >= date '1995-01-01' and l_shipdate < date '1994-01-01'`,
		"32-bit bound above int32": `select count(*) from orders where o_orderkey > 2147483647`,
		"32-bit bound below int32": `select o_custkey, count(*) from orders
			where o_orderkey < -2147483648 group by o_custkey`,
		"contradictory 64-bit bound": `select count(*), sum(l_extendedprice) from lineitem
			where l_discount > 0.07 and l_discount < 0.05`,
		"bounds and string equality": `select c_nationkey, count(*) from customer
			where c_custkey between 100 and 1200 and c_mktsegment = 'BUILDING' group by c_nationkey`,
		"bounds and OR": `select count(*), sum(l_extendedprice) from lineitem
			where l_shipdate >= date '1994-01-01' and (l_quantity < 5 or l_discount = 0.1)`,
		"multi-probe with residual (Q5)": q5,
		"filtered build, filtered grouped probe": `select o_shippriority, count(*), sum(l_quantity) from orders, lineitem
			where o_orderkey = l_orderkey and o_orderdate < date '1995-03-15'
			  and l_shipdate > date '1995-03-15' group by o_shippriority`,
		"filtered projection": `select l_orderkey, l_quantity from lineitem
			where l_shipdate between date '1994-01-01' and date '1994-01-20'`,
	}
	for name, text := range cases {
		want, err := sqlcheck.Oracle(db, text)
		if err != nil {
			t.Fatalf("%s: oracle: %v", name, err)
		}
		wantC := sqlcheck.Canon(want)
		pl, err := logical.Prepare(db, text)
		if err != nil {
			t.Fatalf("%s: prepare: %v", name, err)
		}
		for _, morsel := range []int{1, probeBlock - 1, probeBlock, probeBlock + 1} {
			ctx := exec.WithMorselSize(context.Background(), morsel)
			for _, workers := range []int{1, 3} {
				res, err := Execute(ctx, pl, workers)
				if err != nil {
					t.Fatalf("%s morsel=%d w=%d compiled: %v", name, morsel, workers, err)
				}
				if !sqlcheck.SameRows(sqlcheck.Canon(res.Rows), wantC) {
					t.Errorf("%s morsel=%d w=%d: compiled mismatch\n got %v\nwant %v",
						name, morsel, workers, trunc(res.Rows), trunc(want))
				}
				lres, err := pl.Execute(ctx, workers, 1000)
				if err != nil {
					t.Fatalf("%s morsel=%d w=%d vectorized: %v", name, morsel, workers, err)
				}
				if !sqlcheck.SameRows(sqlcheck.Canon(lres.Rows), wantC) {
					t.Errorf("%s morsel=%d w=%d: vectorized mismatch\n got %v\nwant %v",
						name, morsel, workers, trunc(lres.Rows), trunc(want))
				}
			}
		}
	}
}
