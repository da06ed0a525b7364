package paradigms

import (
	"context"
	"strings"
	"sync"
	"testing"

	"paradigms/internal/logical"
	"paradigms/internal/queries"
)

var (
	sqlDBOnce sync.Once
	sqlTPCH   *DB
	sqlSSB    *DB
)

func sqlDBs() (*DB, *DB) {
	sqlDBOnce.Do(func() {
		sqlTPCH = GenerateTPCH(0.01, 0)
		sqlSSB = GenerateSSB(0.01, 0)
	})
	return sqlTPCH, sqlSSB
}

// TestRunContextSQL: the facade accepts raw SQL on all three engines —
// the vectorized lowering on Tectorwise, the compiled fused-pipeline
// lowering on Typer, the per-pipeline mix on Hybrid — with identical
// results, and rejects engines the dispatch does not know.
func TestRunContextSQL(t *testing.T) {
	db, _ := sqlDBs()
	const q6 = `select sum(l_extendedprice * l_discount) from lineitem
		where l_shipdate >= date '1994-01-01' and l_shipdate < date '1995-01-01'
		and l_discount between 0.05 and 0.07 and l_quantity < 24`

	want := int64(queries.RefQ6(db))
	for _, engine := range []Engine{Tectorwise, Typer, Hybrid} {
		res, err := Run(db, engine, q6, Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		rows := res.(*logical.Result).Rows
		if len(rows) != 1 || rows[0][0] != want {
			t.Errorf("%s SQL Q6 = %v, want [[%d]]", engine, rows, want)
		}
	}

	if _, err := Run(db, Engine("reference"), q6, Options{}); err == nil || !strings.Contains(err.Error(), "unknown engine") {
		t.Errorf("reference SQL err = %v, want unknown-engine error", err)
	}

	for _, engine := range []Engine{Tectorwise, Typer} {
		if _, err := Run(db, engine, "select nope from lineitem", Options{}); err == nil {
			t.Errorf("%s: bad SQL did not error", engine)
		}
	}
}

// TestServiceSQL: the query service accepts raw SQL in Submit/Do,
// routing by the statement's FROM tables (TPC-H vs SSB), with oracle
// validation skipped for ad-hoc texts and errors (not panics) for
// malformed ones.
func TestServiceSQL(t *testing.T) {
	tpchDB, ssbDB := sqlDBs()
	svc := NewService(tpchDB, ssbDB, ServiceOptions{})
	defer svc.Close()
	ctx := context.Background()

	res, err := svc.Do(ctx, string(Tectorwise), `select count(*) from orders`)
	if err != nil {
		t.Fatal(err)
	}
	if rows := res.(*logical.Result).Rows; rows[0][0] != int64(tpchDB.Rel("orders").Rows()) {
		t.Errorf("count(orders) = %v", rows)
	}

	// lineorder exists only in SSB: table routing must pick the SSB db.
	res, err = svc.Do(ctx, string(Tectorwise), `select count(*) from lineorder`)
	if err != nil {
		t.Fatal(err)
	}
	if rows := res.(*logical.Result).Rows; rows[0][0] != int64(ssbDB.Rel("lineorder").Rows()) {
		t.Errorf("count(lineorder) = %v", rows)
	}

	if _, err := svc.Do(ctx, string(Tectorwise), `select zap from lineitem`); err == nil {
		t.Error("malformed SQL served without error")
	}
	if _, err := svc.Do(ctx, string(Tectorwise), `select 1 from nosuch`); err == nil {
		t.Error("unknown table served without error")
	}

	st := svc.Stats()
	if st.Served != 2 || st.Failed != 2 {
		t.Errorf("stats = served %d failed %d, want 2/2", st.Served, st.Failed)
	}
}

// TestServiceSQLConcurrent: canonical benchmark texts and one-off SQL
// share the admission control machinery on both engines (the
// vectorized and the compiled SQL backends); mixed load stays race-free
// and correct.
func TestServiceSQLConcurrent(t *testing.T) {
	tpchDB, ssbDB := sqlDBs()
	svc := NewService(tpchDB, ssbDB, ServiceOptions{WorkerBudget: 4, MaxConcurrent: 3})
	defer svc.Close()
	q6, _ := logical.SQLText("tpch", "Q6")
	q11, _ := logical.SQLText("ssb", "Q1.1")
	queriesMix := []string{
		q6,
		q11,
		`select count(*) from orders`,
		`select sum(lo_revenue) from lineorder where lo_discount between 1 and 3`,
	}
	engines := []Engine{Tectorwise, Typer}
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				q := queriesMix[(c+i)%len(queriesMix)]
				eng := engines[(c+i)%len(engines)]
				if _, err := svc.Do(context.Background(), string(eng), q); err != nil {
					t.Errorf("client %d query %q on %s: %v", c, q, eng, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if st := svc.Stats(); st.Served != 40 {
		t.Errorf("served %d, want 40", st.Served)
	}
}
