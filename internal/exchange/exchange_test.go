package exchange

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"paradigms/internal/engine"
	"paradigms/internal/logical"
	"paradigms/internal/sqlcheck"
	"paradigms/internal/storage"
	"paradigms/internal/types"
)

// checkCluster runs one SQL text through the sharded path on both
// backends and several worker budgets, comparing against the naive
// oracle: exact row order under ORDER BY (the generator and these
// hand-written queries only order by total-order keys), canonicalized
// multisets otherwise.
func checkCluster(t *testing.T, db *storage.Database, n int, text string) {
	t.Helper()
	ctx := context.Background()
	want, err := sqlcheck.Oracle(db, text)
	if err != nil {
		t.Fatalf("oracle failed for %q: %v", text, err)
	}
	wantC := sqlcheck.Canon(want)
	cl, err := New(db, n)
	if err != nil {
		t.Fatalf("New(n=%d): %v", n, err)
	}
	ordered := strings.Contains(text, "order by")
	for _, engine := range []string{engine.Typer, engine.Tectorwise} {
		for _, w := range []int{1, 3} {
			res, err := cl.Run(ctx, Request{SQL: text, Engine: engine, Workers: w, VecSize: 64})
			if err != nil {
				t.Fatalf("%s n=%d w=%d failed for %q: %v", engine, n, w, text, err)
			}
			if ordered {
				if !reflect.DeepEqual(res.Rows, want) && !(len(res.Rows) == 0 && len(want) == 0) {
					t.Errorf("%s n=%d w=%d row order differs for %q\n got %v\nwant %v",
						engine, n, w, text, res.Rows, want)
				}
			} else if !sqlcheck.SameRows(sqlcheck.Canon(res.Rows), wantC) {
				t.Errorf("%s n=%d w=%d differs from oracle for %q\n got %v\nwant %v",
					engine, n, w, text, res.Rows, want)
			}
		}
	}
}

func TestPartitionSingleShardIsIdentity(t *testing.T) {
	db := sqlcheck.MiniTPCH(8, true)
	shards, err := Partition(db, 1, PartitionKeys(db))
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 1 || shards[0] != db {
		t.Fatalf("n=1 must return the base database itself, got %d shard(s)", len(shards))
	}
}

func TestDistributeModes(t *testing.T) {
	db := sqlcheck.MiniTPCH(8, true)
	keys := PartitionKeys(db)
	prep := func(text string) *logical.Plan {
		pl, err := logical.Prepare(db, text)
		if err != nil {
			t.Fatalf("prepare %q: %v", text, err)
		}
		return pl
	}

	// A fact-table join scatters, and the rendered plan shows the
	// exchange pair.
	dp, err := logical.Distribute(prep("select o_orderkey, sum(l_quantity) from lineitem, orders where l_orderkey = o_orderkey group by o_orderkey"), keys)
	if err != nil {
		t.Fatalf("co-partitioned join should distribute: %v", err)
	}
	if dp.Mode != logical.DistScatter || !reflect.DeepEqual(dp.PartTables, []string{"lineitem", "orders"}) {
		t.Fatalf("unexpected placement: mode=%v tables=%v", dp.Mode, dp.PartTables)
	}
	out := dp.Format(4)
	for _, want := range []string{"gather merge groups", "scatter shards=4 range[lineitem.l_orderkey, orders.o_orderkey]", "hashjoin"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q:\n%s", want, out)
		}
	}

	// A replicated-only plan pins to one shard.
	dp, err = logical.Distribute(prep("select count(*) from customer"), keys)
	if err != nil {
		t.Fatal(err)
	}
	if dp.Mode != logical.DistSingle {
		t.Fatalf("dimension-only plan should be single-shard, got mode %v", dp.Mode)
	}

	// A join that probes a partitioned build with a non-partition
	// column is rejected (those matches cross shard boundaries).
	if _, err = logical.Distribute(prep("select count(*) from lineitem, orders where l_suppkey = o_orderkey"), keys); err == nil {
		t.Fatal("non-co-partitioned join must not distribute")
	}
}

// TestClusterEdgeCases covers the cross-shard merge edge cases: shards
// that receive no rows, every row hashing to one shard, zero-group
// aggregates, single-shard (replicated-only) routing, and ORDER
// BY/LIMIT total-order discipline across shards — on both backends
// against the oracle.
func TestClusterEdgeCases(t *testing.T) {
	emptyT, emptyS := sqlcheck.EmptyMinis()
	miniT := sqlcheck.MiniTPCH(6, true)
	noneT := sqlcheck.MiniTPCH(12, false)
	miniS := sqlcheck.MiniSSB(12, true)
	cases := []struct {
		name string
		db   *storage.Database
		n    int
		sql  string
	}{
		{"empty-global", emptyT, 4, "select count(*), sum(l_quantity) from lineitem"},
		{"empty-grouped", emptyT, 4, "select o_orderkey, sum(l_quantity) from lineitem, orders where l_orderkey = o_orderkey group by o_orderkey"},
		{"empty-ssb", emptyS, 4, "select sum(lo_revenue) from lineorder"},
		{"sparse-shards", miniT, 8, "select o_orderkey, o_totalprice, sum(l_extendedprice), count(*) from lineitem, orders where l_orderkey = o_orderkey group by o_orderkey, o_totalprice order by o_orderkey"},
		{"zero-qualifying-global", noneT, 4, "select sum(l_extendedprice), min(l_quantity), max(l_quantity), count(*) from lineitem where l_shipdate >= date '1994-01-01'"},
		{"zero-qualifying-grouped", noneT, 4, "select o_orderkey, count(*) from lineitem, orders where l_orderkey = o_orderkey and l_shipdate >= date '1994-01-01' group by o_orderkey"},
		{"replicated-only-route", miniS, 4, "select lo_partkey, sum(lo_revenue) from lineorder group by lo_partkey order by lo_partkey"},
		{"orderby-limit", miniT, 4, "select o_orderkey, sum(l_extendedprice) from lineitem, orders where l_orderkey = o_orderkey group by o_orderkey order by o_orderkey desc limit 3"},
		{"having", miniT, 4, "select o_orderkey, sum(l_extendedprice) from lineitem, orders where l_orderkey = o_orderkey group by o_orderkey having sum(l_extendedprice) > 200 order by o_orderkey"},
		{"projection-limit", miniT, 4, "select o_orderkey, o_totalprice from orders order by o_orderkey limit 4"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkCluster(t, tc.db, tc.n, tc.sql) })
	}
}

// TestClusterSkew pins the all-rows-on-one-shard extreme: one hot
// order key, so every fact row lands on a single shard and the other
// shards contribute empty partials.
func TestClusterSkew(t *testing.T) {
	db := storage.NewDatabase("tpch", 0)
	ord := storage.NewRelation("orders")
	ord.AddInt32("o_orderkey", []int32{7})
	ord.AddNumeric("o_totalprice", []types.Numeric{700})
	db.Add(ord)
	li := storage.NewRelation("lineitem")
	const n = 20
	lok := make([]int32, n)
	lqty := make([]types.Numeric, n)
	for i := range lok {
		lok[i] = 7
		lqty[i] = types.Numeric(int64(i+1) * types.NumericScale)
	}
	li.AddInt32("l_orderkey", lok)
	li.AddNumeric("l_quantity", lqty)
	db.Add(li)

	checkCluster(t, db, 4, "select o_orderkey, count(*), sum(l_quantity), min(l_quantity), max(l_quantity) from lineitem, orders where l_orderkey = o_orderkey group by o_orderkey")
	checkCluster(t, db, 4, "select sum(l_quantity), count(*) from lineitem")
}

// TestClusterFallback: a plan the distribute rewrite rejects still
// answers correctly via the single-process fallback, and the routing
// stats say so.
func TestClusterFallback(t *testing.T) {
	db := sqlcheck.MiniTPCH(8, true)
	cl, err := New(db, 4)
	if err != nil {
		t.Fatal(err)
	}
	text := "select count(*) from lineitem, orders where l_suppkey = o_orderkey"
	want, err := sqlcheck.Oracle(db, text)
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []string{engine.Typer, engine.Tectorwise} {
		res, err := cl.Run(context.Background(), Request{SQL: text, Engine: engine, Workers: 2})
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		if !sqlcheck.SameRows(sqlcheck.Canon(res.Rows), sqlcheck.Canon(want)) {
			t.Errorf("%s fallback differs: got %v want %v", engine, res.Rows, want)
		}
	}
	if _, _, fallback := cl.Stats(); fallback != 2 {
		t.Errorf("expected 2 fallback routes, got %d", fallback)
	}
	if out, err := cl.Explain(text); err != nil || !strings.Contains(out, "single-process fallback") {
		t.Errorf("Explain should describe the fallback, got %q err=%v", out, err)
	}
}

// TestClusterOneShardMatchesSingleProcess: an N=1 cluster must return
// bit-identical rows (order included) to plain single-process
// execution on both backends. Row order without a total-order ORDER BY
// is only defined at one worker (DESIGN.md "Result semantics"), so the
// positional comparison pins Workers: 1.
func TestClusterOneShardMatchesSingleProcess(t *testing.T) {
	db := sqlcheck.MiniTPCH(16, true)
	cl, err := New(db, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	texts := []string{
		"select o_orderkey, sum(l_extendedprice), count(*) from lineitem, orders where l_orderkey = o_orderkey group by o_orderkey",
		"select l_orderkey, l_quantity from lineitem",
		"select sum(l_extendedprice * l_discount) from lineitem where l_quantity < 24",
	}
	for _, text := range texts {
		pl, err := logical.Prepare(db, text)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{engine.Typer, engine.Tectorwise} {
			got, err := cl.Run(ctx, Request{SQL: text, Engine: name, Workers: 1, VecSize: 128})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want, err := engine.Run(ctx, name, pl, engine.Options{Workers: 1, VecSize: 128})
			if err != nil {
				t.Fatalf("%s local: %v", name, err)
			}
			if !reflect.DeepEqual(got.Rows, want.Result.Rows) {
				t.Errorf("%s n=1 not bit-identical for %q\n got %v\nwant %v", name, text, got.Rows, want.Result.Rows)
			}
		}
	}
}
