package compiled

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"paradigms/internal/logical"
	"paradigms/internal/sqlcheck"
	"paradigms/internal/ssb"
	"paradigms/internal/storage"
	"paradigms/internal/tpch"
)

var (
	dbOnce  sync.Once
	tpchDBs map[float64]*storage.Database
	ssbDBs  map[float64]*storage.Database
)

func testDBs() (map[float64]*storage.Database, map[float64]*storage.Database) {
	dbOnce.Do(func() {
		tpchDBs = map[float64]*storage.Database{}
		ssbDBs = map[float64]*storage.Database{}
		for _, sf := range []float64{0.01, 0.05} {
			tpchDBs[sf] = tpch.Generate(sf, 0)
			ssbDBs[sf] = ssb.Generate(sf, 0)
		}
	})
	return tpchDBs, ssbDBs
}

// runSQL plans a text and executes it on the fused lowering.
func runSQL(ctx context.Context, db *storage.Database, text string, workers int) (*logical.Result, error) {
	pl, err := logical.Prepare(db, text)
	if err != nil {
		return nil, err
	}
	return Execute(ctx, pl, workers)
}

// TestCompiledMatchesReference is the compiled backend's headline
// proof: the SQL texts of TPC-H Q6/Q3/Q5/Q18 and SSB Q1.1/Q2.1 lower
// to fused pipelines and execute bit-identical to the reference
// oracles across worker counts (the compiled engine has no vector
// size; the vectorized grid is covered by the cross-engine
// differential suite at the repo root).
func TestCompiledMatchesReference(t *testing.T) {
	tp, sb := testDBs()
	for _, sf := range []float64{0.01, 0.05} {
		for _, db := range []*storage.Database{tp[sf], sb[sf]} {
			for _, name := range logical.SQLQueries(db.Name) {
				text, ok := logical.SQLText(db.Name, name)
				if !ok {
					t.Fatalf("no SQL text for %s/%s", db.Name, name)
				}
				want := sqlcheck.RefRows(db, name)
				for _, workers := range []int{1, 4} {
					res, err := runSQL(context.Background(), db, text, workers)
					if err != nil {
						t.Fatalf("sf=%v %s/%s w=%d: %v", sf, db.Name, name, workers, err)
					}
					got := res.Rows
					if len(got) == 0 && len(want) == 0 {
						continue
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("sf=%v %s/%s w=%d: rows mismatch\n got %v\nwant %v",
							sf, db.Name, name, workers, trunc(got), trunc(want))
					}
				}
			}
		}
	}
}

func trunc(rows [][]int64) [][]int64 {
	if len(rows) > 8 {
		return rows[:8]
	}
	return rows
}

// TestCompiledFeatures exercises grammar breadth on the compiled
// backend beyond the benchmark queries: global COUNT/MIN/MAX, grouped
// COUNT with HAVING on a hidden aggregate, IN/OR/NOT predicates,
// projections with ORDER BY/LIMIT, and constant-false WHERE.
func TestCompiledFeatures(t *testing.T) {
	tp, _ := testDBs()
	db := tp[0.01]
	ctx := context.Background()

	run := func(text string) *logical.Result {
		t.Helper()
		res, err := runSQL(ctx, db, text, 2)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		return res
	}

	res := run(`select count(*), min(o_orderdate), max(o_orderdate), sum(o_totalprice) from orders`)
	ord := db.Rel("orders")
	dates := ord.Date("o_orderdate")
	totals := ord.Numeric("o_totalprice")
	minD, maxD, sum := int64(dates[0]), int64(dates[0]), int64(0)
	for i := range dates {
		d := int64(dates[i])
		if d < minD {
			minD = d
		}
		if d > maxD {
			maxD = d
		}
		sum += int64(totals[i])
	}
	want := []int64{int64(ord.Rows()), minD, maxD, sum}
	if !reflect.DeepEqual(res.Rows, [][]int64{want}) {
		t.Errorf("global aggregates = %v, want %v", res.Rows, want)
	}

	res = run(`select o_shippriority, count(*) from orders group by o_shippriority having max(o_orderkey) > 0`)
	var total int64
	for _, r := range res.Rows {
		total += r[1]
	}
	if total != int64(ord.Rows()) {
		t.Errorf("grouped counts sum to %d, want %d", total, ord.Rows())
	}

	res = run(`select n_nationkey, n_regionkey from nation where n_regionkey in (1, 2) or n_nationkey = 0 order by 1 limit 5`)
	if len(res.Rows) != 5 {
		t.Fatalf("projection returned %d rows, want 5", len(res.Rows))
	}
	prev := int64(-1)
	for _, r := range res.Rows {
		if r[0] <= prev {
			t.Errorf("rows not ordered by first column: %v", res.Rows)
		}
		prev = r[0]
		if !(r[1] == 1 || r[1] == 2 || r[0] == 0) {
			t.Errorf("row %v fails the OR/IN predicate", r)
		}
	}

	// String predicates under NOT go through the generic compiled
	// predicate and must not silently drop rows.
	cust := db.Rel("customer")
	segHeap := cust.String("c_mktsegment")
	building := 0
	for i := 0; i < cust.Rows(); i++ {
		if string(segHeap.Get(i)) == "BUILDING" {
			building++
		}
	}
	res = run(`select count(*) from customer where not (c_mktsegment = 'BUILDING')`)
	if got := res.Rows[0][0]; got != int64(cust.Rows()-building) {
		t.Errorf("NOT over string eq counted %d, want %d", got, cust.Rows()-building)
	}

	res = run(`select sum(o_totalprice) from orders where 1 = 2`)
	if !reflect.DeepEqual(res.Rows, [][]int64{{0}}) {
		t.Errorf("always-false global sum = %v, want [[0]]", res.Rows)
	}
	res = run(`select o_custkey from orders where 1 = 2 group by o_custkey`)
	if len(res.Rows) != 0 {
		t.Errorf("always-false grouped query returned %d rows", len(res.Rows))
	}
}

// TestCompiledCancellation: a canceled context drains the fused
// pipelines' workers promptly, like every registered query.
func TestCompiledCancellation(t *testing.T) {
	tp, _ := testDBs()
	db := tp[0.01]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	text, _ := logical.SQLText("tpch", "Q3")
	if _, err := runSQL(ctx, db, text, 4); err != nil {
		t.Fatalf("canceled run errored: %v", err)
	}
}
