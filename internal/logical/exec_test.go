package logical

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"

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

// runSQL plans a text and executes it on the vectorized lowering.
func runSQL(ctx context.Context, db *storage.Database, text string, workers, vec int) (*Result, error) {
	pl, err := Prepare(db, text)
	if err != nil {
		return nil, err
	}
	return pl.Execute(ctx, workers, vec)
}

// TestSQLLargeVectorSizes keeps the Fig. 5 extremes covered on the
// lowered plans of Q6 and Q3 (which have no hand-written plans): vector
// sizes above the morsel size and full materialization stress Scan
// windowing and the vec-sized probe buffers in ways the small-vector
// sweeps cannot.
func TestSQLLargeVectorSizes(t *testing.T) {
	db := tpch.Generate(0.02, 0)
	for _, name := range []string{"Q6", "Q3"} {
		text, _ := SQLText("tpch", name)
		want := sqlcheck.RefRows(db, name)
		for _, vec := range []int{65536, db.Rel("lineitem").Rows()} {
			res, err := runSQL(context.Background(), db, text, 2, vec)
			if err != nil {
				t.Fatalf("%s vec=%d: %v", name, vec, err)
			}
			if !reflect.DeepEqual(res.Rows, want) {
				t.Errorf("%s vec=%d: rows mismatch\n got %v\nwant %v", name, vec, trunc(res.Rows), trunc(want))
			}
		}
	}
}

// TestSQLMatchesReference is the subsystem's headline proof: the SQL
// texts of TPC-H Q6/Q3/Q5/Q18 and SSB Q1.1/Q2.1 parse, plan, lower, and
// execute bit-identical to the reference oracles across vector sizes
// and worker counts.
func TestSQLMatchesReference(t *testing.T) {
	tp, sb := testDBs()
	for _, sf := range []float64{0.01, 0.05} {
		for _, db := range []*storage.Database{tp[sf], sb[sf]} {
			for _, name := range SQLQueries(db.Name) {
				text, ok := SQLText(db.Name, name)
				if !ok {
					t.Fatalf("no SQL text for %s/%s", db.Name, name)
				}
				want := sqlcheck.RefRows(db, name)
				for _, workers := range []int{1, 4} {
					for _, vec := range []int{1, 1000, 4096} {
						res, err := runSQL(context.Background(), db, text, workers, vec)
						if err != nil {
							t.Fatalf("sf=%v %s/%s w=%d vec=%d: %v", sf, db.Name, name, workers, vec, err)
						}
						got := res.Rows
						if len(got) == 0 && len(want) == 0 {
							continue
						}
						if !reflect.DeepEqual(got, want) {
							t.Errorf("sf=%v %s/%s w=%d vec=%d: rows mismatch\n got %v\nwant %v",
								sf, db.Name, name, workers, vec, trunc(got), trunc(want))
						}
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

// TestSQLFeatures exercises the grammar breadth beyond the benchmark
// queries: COUNT/MIN/MAX (global and grouped), IN lists, OR predicates,
// plain projections with ORDER BY / LIMIT, ordinals and aliases.
func TestSQLFeatures(t *testing.T) {
	tp, _ := testDBs()
	db := tp[0.01]
	ctx := context.Background()

	run := func(text string) *Result {
		t.Helper()
		res, err := runSQL(ctx, db, text, 2, 64)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		return res
	}

	// Global COUNT/MIN/MAX against a straight scan of the column.
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

	// Grouped COUNT and MIN with HAVING on a hidden aggregate.
	res = run(`select o_shippriority, count(*) from orders group by o_shippriority having max(o_orderkey) > 0`)
	if len(res.Rows) == 0 {
		t.Error("grouped count returned no rows")
	}
	var total int64
	for _, r := range res.Rows {
		total += r[1]
	}
	if total != int64(ord.Rows()) {
		t.Errorf("grouped counts sum to %d, want %d", total, ord.Rows())
	}

	// IN list and OR, projection, ORDER BY ordinal, LIMIT.
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

	// Alias ordering, descending.
	res = run(`select o_custkey ck, max(o_totalprice) as top from orders group by o_custkey order by top desc, ck limit 3`)
	if len(res.Rows) != 3 || res.Rows[0][1] < res.Rows[1][1] || res.Rows[1][1] < res.Rows[2][1] {
		t.Errorf("alias desc order broken: %v", res.Rows)
	}

	// String predicates nested under NOT / OR go through the generic
	// row predicate and must not silently drop rows.
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
	res = run(`select count(*) from customer where c_mktsegment = 'BUILDING' or c_custkey <= 100`)
	if got := res.Rows[0][0]; got < int64(building) || got < 100 {
		t.Errorf("OR with string eq counted %d, want >= max(%d, 100)", got, building)
	}

	// A literal outside int32 range must not wrap inside the typed Sel
	// primitives (wrapping would invert the comparison).
	if _, err := runSQL(ctx, db, `select count(*) from customer where c_custkey > 3000000000`, 1, 0); err == nil ||
		!strings.Contains(err.Error(), "out of range") {
		t.Errorf("out-of-range int32 literal err = %v, want range error", err)
	}

	// A predicate as a select item is a bind error, not a worker panic
	// (a panic on a worker goroutine would escape engine.Run's recover
	// and kill the service).
	if _, err := runSQL(ctx, db, `select l_quantity < 24 from lineitem limit 3`, 2, 64); err == nil ||
		!strings.Contains(err.Error(), "predicate") {
		t.Errorf("predicate select item err = %v, want bind error", err)
	}

	// HAVING on a group column the planner substituted to a spine-side
	// equivalent (c_custkey ≡ o_custkey) resolves through KeyOf.
	res = run(`select c_custkey, count(*) from orders, customer where o_custkey = c_custkey group by c_custkey having c_custkey < 100`)
	if len(res.Rows) == 0 {
		t.Error("HAVING on substituted group key returned no rows")
	}
	for _, r := range res.Rows {
		if r[0] >= 100 {
			t.Errorf("row %v violates having c_custkey < 100", r)
		}
	}

	// Constant-false WHERE yields zeroed global aggregates / empty rows.
	res = run(`select sum(o_totalprice) from orders where 1 = 2`)
	if !reflect.DeepEqual(res.Rows, [][]int64{{0}}) {
		t.Errorf("always-false global sum = %v, want [[0]]", res.Rows)
	}
	res = run(`select o_custkey from orders where 1 = 2 group by o_custkey`)
	if len(res.Rows) != 0 {
		t.Errorf("always-false grouped query returned %d rows", len(res.Rows))
	}
}

// TestSQLCancellation: a canceled context drains the lowered plan's
// workers promptly, like every registered query.
func TestSQLCancellation(t *testing.T) {
	tp, _ := testDBs()
	db := tp[0.01]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	text, _ := SQLText("tpch", "Q3")
	if _, err := runSQL(ctx, db, text, 4, 0); err != nil {
		t.Fatalf("canceled run errored: %v", err)
	}
}
