package paradigms

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"paradigms/internal/engine"
	"paradigms/internal/logical"
	"paradigms/internal/sqlcheck"
)

// The prepared-statement differential harness — the proof that one
// cached parameterized plan serves every argument binding correctly:
// each generated statement is planned once, then executed with two
// independently sampled bindings on the compiled backend, the
// vectorized backend across vector sizes, and compared against both a
// fresh-planned run of the substituted literal text and the trusted
// oracle. Any drift between cached and fresh planning — stale constant
// folding, mis-scaled parameter coercion, shared-state mutation —
// shows up as a row-multiset mismatch.

// TestSQLPreparedDifferentialCorpus: 60 seeded parameterized queries
// (alternating TPC-H and SSB), two bindings each, cached + fresh on
// both engines versus the oracle — well over the 200-execution floor,
// with zero mismatches tolerated.
func TestSQLPreparedDifferentialCorpus(t *testing.T) {
	tpchDB, ssbDB := sqlDBs()
	ctx := context.Background()
	execs, paramQueries := 0, 0

	for seed := int64(2000); seed < 2060; seed++ {
		db := tpchDB
		if seed%2 == 1 {
			db = ssbDB
		}
		text, bindings := sqlcheck.GenerateParameterized(rand.New(rand.NewSource(seed)), db)
		pl, err := logical.Prepare(db, text)
		if err != nil {
			t.Fatalf("prepare %q: %v", text, err)
		}
		if len(pl.Params) > 0 {
			paramQueries++
		} else {
			bindings = bindings[:1] // identical empty bindings: run once
		}
		for _, binding := range bindings {
			lit := sqlcheck.Substitute(text, binding)
			want, err := sqlcheck.Oracle(db, lit)
			if err != nil {
				t.Fatalf("oracle failed for %q: %v", lit, err)
			}
			vals, err := pl.BindTexts(binding)
			if err != nil {
				t.Fatalf("bind %v for %q: %v", binding, text, err)
			}
			// run executes a plan (the cached template with its bound
			// values, or a fresh plan of the literal text) and checks
			// it against the oracle.
			run := func(label string, p *logical.Plan, name string, workers, vec int, args []int64) {
				t.Helper()
				out, err := engine.Run(ctx, name, p, engine.Options{Args: args, Workers: workers, VecSize: vec})
				execs++
				if err != nil {
					t.Fatalf("%s %s w=%d vec=%d failed for %q %v: %v", label, name, workers, vec, text, binding, err)
				}
				if !sqlcheck.SameRows(out.Result.Rows, want) {
					t.Errorf("%s %s w=%d vec=%d differs from oracle for %q %v\n got %v\nwant %v",
						label, name, workers, vec, text, binding, clip(out.Result.Rows), clip(want))
				}
			}
			for _, workers := range []int{1, 4} {
				run("cached", pl, engine.Typer, workers, 0, vals)
				for _, vec := range []int{1, 1024} {
					run("cached", pl, engine.Tectorwise, workers, vec, vals)
				}
			}
			// Fresh-planned runs of the substituted literal text: the
			// cached plan must agree with a from-scratch plan of the
			// same logical query.
			fresh, err := logical.Prepare(db, lit)
			if err != nil {
				t.Fatalf("prepare %q: %v", lit, err)
			}
			run("fresh", fresh, engine.Typer, 4, 0, nil)
			run("fresh", fresh, engine.Tectorwise, 4, 1000, nil)
		}
	}

	// The acceptance bar: ≥ 200 executions across both engines, cached
	// and fresh, and a corpus that actually exercises placeholders.
	if execs < 200 {
		t.Fatalf("differential corpus ran only %d executions (want >= 200)", execs)
	}
	if paramQueries < 20 {
		t.Fatalf("generator produced only %d parameterized statements of 60 (placeholder rate broken?)", paramQueries)
	}
	t.Logf("%d executions over 60 statements (%d parameterized)", execs, paramQueries)
}

// preparedRaceStmt is one statement of the concurrency hammer with its
// fixed argument sets and oracle-precomputed expectations.
type preparedRaceStmt struct {
	text string
	args [][]string
	want [][][]int64 // canon rows per arg set
}

// TestPreparedConcurrentService hammers Prepare/Execute/evict from
// parallel clients through the full service stack — 8 statements
// against a 4-slot plan cache force steady evictions and re-prepares
// while executions of all three engine spellings (typer, tectorwise,
// auto) are in flight. Every cache-hit result must stay bit-identical
// to the oracle expectation, and the counters must reconcile exactly.
// CI runs this under -race.
func TestPreparedConcurrentService(t *testing.T) {
	tpch := sqlcheck.MiniTPCH(64, true)
	ssb := sqlcheck.MiniSSB(32, true)

	stmts := []preparedRaceStmt{
		{text: "select count(*) from lineitem where l_quantity < ?",
			args: [][]string{{"10"}, {"30"}}},
		{text: "select sum(l_extendedprice * l_discount) as rev from lineitem where l_discount between ? and ?",
			args: [][]string{{"0.01", "0.08"}, {"0.03", "0.05"}}},
		{text: "select o_custkey, count(*) from orders where o_custkey < ? group by o_custkey order by 1",
			args: [][]string{{"5"}, {"9"}}},
		{text: "select max(o_totalprice) from orders, customer where o_custkey = c_custkey and c_custkey <= ?",
			args: [][]string{{"6"}, {"3"}}},
		{text: "select count(*) from lineitem, orders where l_orderkey = o_orderkey and l_quantity < ?",
			args: [][]string{{"20"}, {"40"}}},
		{text: "select min(l_extendedprice) as m from lineitem where l_quantity between ? and ?",
			args: [][]string{{"1", "25"}, {"10", "50"}}},
		{text: "select sum(lo_revenue) from lineorder where lo_quantity < ?",
			args: [][]string{{"15"}, {"35"}}},
		{text: "select count(*) from lineorder, date where lo_orderdate = d_datekey and d_year >= ?",
			args: [][]string{{"1990"}, {"1995"}}},
	}
	for i := range stmts {
		db := tpch
		if i >= 6 {
			db = ssb
		}
		for _, a := range stmts[i].args {
			want, err := sqlcheck.Oracle(db, sqlcheck.Substitute(stmts[i].text, a))
			if err != nil {
				t.Fatalf("oracle for %q %v: %v", stmts[i].text, a, err)
			}
			stmts[i].want = append(stmts[i].want, sqlcheck.Canon(want))
		}
	}

	svc := NewService(tpch, ssb, ServiceOptions{WorkerBudget: 4, PlanCacheSize: 4})
	engines := []string{"typer", "tectorwise", "auto"}
	const clients, iters = 8, 40

	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < iters; i++ {
				k := (g + i) % len(stmts)
				p, err := svc.Prepare(stmts[k].text)
				if err != nil {
					errCh <- fmt.Errorf("client %d: prepare %q: %v", g, stmts[k].text, err)
					return
				}
				a := (g + i) % len(stmts[k].args)
				res, err := svc.DoPrepared(ctx, engines[(g*iters+i)%len(engines)], p, stmts[k].args[a]...)
				if err != nil {
					errCh <- fmt.Errorf("client %d: exec %q %v: %v", g, stmts[k].text, stmts[k].args[a], err)
					return
				}
				rows := res.(*logical.Result).Rows
				if !sqlcheck.SameRows(sqlcheck.Canon(rows), stmts[k].want[a]) {
					errCh <- fmt.Errorf("client %d: %q %v: got %v want %v",
						g, stmts[k].text, stmts[k].args[a], rows, stmts[k].want[a])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	svc.Close()

	st := svc.Stats()
	total := uint64(clients * iters)
	if st.PlanCacheHits+st.PlanCacheMisses != total {
		t.Errorf("cache lookups %d+%d != %d prepares", st.PlanCacheHits, st.PlanCacheMisses, total)
	}
	if st.PlanCacheEvictions == 0 {
		t.Error("no evictions despite 8 statements in a 4-slot cache")
	}
	if st.PlanCacheMisses < uint64(len(stmts)) {
		t.Errorf("misses %d < %d distinct statements", st.PlanCacheMisses, len(stmts))
	}
	if st.Served != total || st.PreparedServed != total || st.Failed != 0 {
		t.Errorf("served=%d prepared=%d failed=%d, want %d/%d/0", st.Served, st.PreparedServed, st.Failed, total, total)
	}
	var perEngine uint64
	for _, n := range st.PerEngine {
		perEngine += n
	}
	if perEngine != total {
		t.Errorf("per-engine counts sum to %d, want %d", perEngine, total)
	}
	if st.PerEngine["auto"] != 0 {
		t.Errorf("%d executions attributed to pseudo-engine auto (it runs as hybrid)", st.PerEngine["auto"])
	}
}

// TestCachedPrepareDoesNotParse: a plan-cache hit costs no parse —
// routing included. The text routes to the second database, so both
// catalogs' keys are probed; the allocation bound is what pins it (a
// parse of this text alone allocates 19 times, the hit twice: the
// normalized key and the handle), and the cache counts exactly one hit
// per Prepare and never a second miss.
func TestCachedPrepareDoesNotParse(t *testing.T) {
	svc := NewService(sqlcheck.MiniTPCH(64, true), sqlcheck.MiniSSB(32, true), ServiceOptions{})
	defer svc.Close()
	const text = "select count(*) from lineorder, date where lo_orderdate = d_datekey and d_year >= ?"
	if _, err := svc.Prepare(text); err != nil {
		t.Fatal(err)
	}
	before := svc.Stats()
	const runs = 50
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := svc.Prepare(text); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Errorf("Prepare of a cached text allocates %v times; it must not parse", allocs)
	}
	after := svc.Stats()
	// AllocsPerRun calls the function once more to warm up.
	if hits := after.PlanCacheHits - before.PlanCacheHits; hits != runs+1 || after.PlanCacheMisses != 1 {
		t.Errorf("%d cached Prepare calls counted %d hits, %d misses in total; want %d and 1",
			runs+1, hits, after.PlanCacheMisses, runs+1)
	}
}
