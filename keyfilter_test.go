package paradigms

import (
	"context"
	"math"
	"reflect"
	"testing"

	"paradigms/internal/logical"
	"paradigms/internal/obs"
	"paradigms/internal/sqlcheck"
)

// remapKeys rewrites a join key in place on its build column and every
// probe column — k → mul·k + add, so build keys are sparse within their
// span, with the largest key stretched so the full build's span is a
// whole number of bitmap words — then moves some probe rows off the
// build keys: into a gap between two keys, below the minimum, above the
// maximum (max+1 included), and to a negative key (above the maximum
// once widened to the 32-bit key word).
func remapKeys(mul, add int32, build []int32, probes ...[]int32) {
	lo, hi := int32(math.MaxInt32), int32(math.MinInt32)
	for _, k := range build {
		lo, hi = min(lo, mul*k+add), max(hi, mul*k+add)
	}
	top := lo + (hi-lo+64)/64*64 - 1
	mapKey := func(k int32) int32 {
		if v := mul*k + add; v != hi {
			return v
		}
		return top
	}
	for i, k := range build {
		build[i] = mapKey(k)
	}
	for _, col := range probes {
		for i, k := range col {
			switch {
			case i%17 == 0:
				col[i] = mul*k + add + 1 // gap
			case i%29 == 0:
				col[i] = lo - 1
			case i%31 == 0:
				col[i] = top + 1 + int32(i%5)
			case i%37 == 0:
				col[i] = -7
			default:
				col[i] = mapKey(k)
			}
		}
	}
}

// sparseKeyDBs generates TPC-H and SSB at SF 0.01 with every join key
// of Q3, Q5 and SSB Q2.1 remapped by remapKeys.
func sparseKeyDBs() (*DB, *DB) {
	tp := GenerateTPCH(0.01, 0)
	cust, ord, line, supp := tp.Rel("customer"), tp.Rel("orders"), tp.Rel("lineitem"), tp.Rel("supplier")
	remapKeys(3, 1, ord.Int32("o_orderkey"), line.Int32("l_orderkey"))
	remapKeys(2, 5, cust.Int32("c_custkey"), ord.Int32("o_custkey"))
	remapKeys(4, 3, supp.Int32("s_suppkey"), line.Int32("l_suppkey"))
	ss := GenerateSSB(0.01, 0)
	lo := ss.Rel("lineorder")
	remapKeys(3, 2, ss.Rel("part").Int32("p_partkey"), lo.Int32("lo_partkey"))
	remapKeys(5, 9, ss.Rel("supplier").Int32("s_suppkey"), lo.Int32("lo_suppkey"))
	return tp, ss
}

// TestKeyFilterAcrossEngines: with build keys sparse within their span
// and probe keys below, above and between them, every engine's key
// filter (hashtable.KeyFilter, read by the compiled probe loops and by
// plan.HashProbe) rejects only true misses. The canonical SQL texts run
// as prepared statements on typer, tectorwise, hybrid and auto, and the
// names run their registry paths (the hand plans probe through
// plan.HashProbe too), with 1 and 4 workers, all against the oracles.
// Each SQL run also shows a build that got a filter, so the probe side
// is exercised.
func TestKeyFilterAcrossEngines(t *testing.T) {
	tp, ss := sparseKeyDBs()
	ctx := context.Background()
	for _, c := range []struct {
		db *DB
		q  string
	}{{tp, "Q3"}, {tp, "Q5"}, {ss, "Q2.1"}} {
		text, _ := logical.SQLText(c.db.Name, c.q)
		st, err := Prepare(c.db, text)
		if err != nil {
			t.Fatal(err)
		}
		want := sqlcheck.RefRows(c.db, c.q)
		if len(want) == 0 {
			t.Fatalf("%s: the oracle returns no rows on the remapped data", c.q)
		}
		named := newOracle(t, c.db, c.q)
		for _, workers := range []int{1, 4} {
			for _, eng := range []Engine{Typer, Tectorwise, Hybrid, Auto} {
				col := obs.NewCollector()
				res, _, err := st.Exec(obs.WithCollector(ctx, col), eng, nil, Options{Workers: workers})
				if err != nil {
					t.Fatalf("%s %s w=%d: %v", c.q, eng, workers, err)
				}
				if !reflect.DeepEqual(res.Rows, want) {
					t.Errorf("%s %s w=%d: SQL rows differ from the oracle", c.q, eng, workers)
				}
				filtered := false
				for _, p := range col.Pipes() {
					filtered = filtered || p.KeyBits > 0
				}
				if !filtered {
					t.Errorf("%s %s w=%d: no build got a key filter: %+v", c.q, eng, workers, col.Pipes())
				}
			}
			for _, eng := range []Engine{Typer, Tectorwise} {
				got, err := Run(c.db, eng, c.q, Options{Workers: workers})
				if err != nil {
					t.Fatalf("%s %s w=%d: %v", c.q, eng, workers, err)
				}
				if !named.matches(got) {
					t.Errorf("%s %s w=%d: named run differs from the oracle", c.q, eng, workers)
				}
			}
		}
	}

	// An unfiltered build: supplier's full key span is a multiple of 64,
	// so a probe at max+1 lands on the first bit past the span.
	const text = `select count(*) as n from lineitem, supplier where l_suppkey = s_suppkey`
	suppliers := map[int32]bool{}
	for _, k := range tp.Rel("supplier").Int32("s_suppkey") {
		suppliers[k] = true
	}
	var n int64
	for _, k := range tp.Rel("lineitem").Int32("l_suppkey") {
		if suppliers[k] {
			n++
		}
	}
	st, err := Prepare(tp, text)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		for _, eng := range []Engine{Typer, Tectorwise, Hybrid, Auto} {
			res, _, err := st.Exec(ctx, eng, nil, Options{Workers: workers})
			if err != nil {
				t.Fatalf("%s %s w=%d: %v", text, eng, workers, err)
			}
			if want := [][]int64{{n}}; !reflect.DeepEqual(res.Rows, want) {
				t.Errorf("%s %s w=%d: %v, want %v", text, eng, workers, res.Rows, want)
			}
		}
	}
}
