package compiled

import (
	"context"
	"reflect"
	"testing"

	"paradigms/internal/exec"
	"paradigms/internal/logical"
	"paradigms/internal/sqlcheck"
	"paradigms/internal/storage"
)

// Staged-probe coverage: on a survivors pipeline every probe whose
// build published a key index or an exact key filter narrows each
// block's selection before the row loop (probe.stage), and the row loop
// then skips the membership test. Each case runs on the fused backend
// at morsel sizes that end a morsel before, on and after a block
// boundary (and the default, where the table's last block is partial),
// on 1 and 3 workers, against the oracle; and each pins the layout its
// final pipeline's steps met and which of them staged, so a case that
// stops exercising its layout fails here instead of passing vacuously.

type stagedCase struct {
	name, text string
	db         *storage.Database
	// layouts lists the final pipeline's steps in probe order: "index"
	// (key index, staged), "filter" (hashed with a key filter, staged)
	// or "hash" (hashed, no filter: full per-row lookup, not staged).
	layouts []string
}

// keysDB holds orders and supplier of src, a nation whose keys are the
// negative −25 … −1, and a facts table over lineitem's rows: f_orderkey
// is l_orderkey as a 64-bit column, every seventh value pushed outside
// any build's span (negative, or above 2³²); f_suppkey is l_suppkey;
// f_nationkey runs over the nation keys, every ninth row non-negative and
// so never a member. The probe keys of 64-bit and negative 32-bit
// columns reach the stage in their word form (zero-extended for 32
// bits), which is what the builds store.
func keysDB(src *storage.Database) *storage.Database {
	db := storage.NewDatabase("tpch", 0)
	db.Add(src.Rel("orders"))
	db.Add(src.Rel("supplier"))
	nation := storage.NewRelation("nation")
	nkeys := make([]int32, 25)
	for i := range nkeys {
		nkeys[i] = int32(-1 - i)
	}
	nation.AddInt32("n_nationkey", nkeys)
	db.Add(nation)
	li := src.Rel("lineitem")
	ok32 := li.Int32("l_orderkey")
	ok64 := make([]int64, len(ok32))
	nat := make([]int32, len(ok32))
	for i, v := range ok32 {
		ok64[i] = int64(v)
		switch i % 7 {
		case 3:
			ok64[i] = -ok64[i]
		case 5:
			ok64[i] += 1 << 32
		}
		nat[i] = int32(-1 - i%25)
		if i%9 == 4 {
			nat[i] = int32(i % 25)
		}
	}
	facts := storage.NewRelation("facts")
	facts.AddInt64("f_orderkey", ok64)
	facts.AddInt32("f_suppkey", li.Int32("l_suppkey"))
	facts.AddInt32("f_nationkey", nat)
	facts.AddNumeric("f_quantity", li.Numeric("l_quantity"))
	db.Add(facts)
	return db
}

// stepLayouts reports the layout and staging of each step of the final
// pipeline of an executed program.
func stepLayouts(cp *Program) (layouts []string, staged []bool) {
	probes, _ := cp.pr.final.probeStages()
	for _, pr := range probes {
		switch {
		case pr.ix.On():
			layouts = append(layouts, "index")
		case pr.kf.Bits() > 0:
			layouts = append(layouts, "filter")
		default:
			layouts = append(layouts, "hash")
		}
		staged = append(staged, pr.staged)
	}
	return layouts, staged
}

func TestStagedProbes(t *testing.T) {
	tp, _ := testDBs()
	db := tp[0.01]
	kdb := keysDB(db)
	q5, _ := logical.SQLText("tpch", "Q5")
	cases := []stagedCase{
		{"key-indexed steps", `select count(*), sum(l_quantity) from lineitem, orders, supplier
			where l_orderkey = o_orderkey and l_suppkey = s_suppkey and o_orderkey < 3000`,
			db, []string{"index", "index"}},
		{"empty key-indexed build", `select count(*), sum(l_quantity) from lineitem, orders, supplier
			where l_orderkey = o_orderkey and l_suppkey = s_suppkey and o_orderdate < date '1900-01-01'`,
			db, []string{"index", "index"}},
		{"hashed step with a filter", `select o_orderdate, count(*), sum(l_extendedprice) from lineitem, orders, supplier
			where l_orderkey = o_orderkey and l_suppkey = s_suppkey
			  and o_orderdate >= date '1994-01-01' and o_orderdate < date '1995-01-01'
			group by o_orderdate`,
			db, []string{"filter", "index"}},
		{"hashed step without a filter", `select count(*), sum(l_quantity), min(o_orderdate) from lineitem, orders, supplier
			where l_orderkey = o_orderkey and l_suppkey = s_suppkey
			  and (o_orderkey < 20 or o_orderkey > 14990)`,
			db, []string{"hash", "index"}},
		{"64-bit probe key, hashed with a filter", `select count(*), sum(f_quantity) from facts, orders, supplier
			where f_orderkey = o_orderkey and f_suppkey = s_suppkey and o_orderdate < date '1995-01-01'`,
			kdb, []string{"filter", "index"}},
		{"64-bit probe key, key-indexed", `select count(*), sum(f_quantity), max(f_orderkey) from facts, orders
			where f_orderkey = o_orderkey and o_orderkey < 3000`,
			kdb, []string{"index"}},
		{"negative 32-bit keys, key-indexed", `select f_nationkey, count(*), sum(f_quantity) from facts, nation, supplier
			where f_nationkey = n_nationkey and f_suppkey = s_suppkey and s_suppkey < 60
			group by f_nationkey`,
			kdb, []string{"index", "index"}},
		{"residual (Q5)", q5, db, []string{"filter", "index"}},
		{"string equality and predicate with a probe", `select c_nationkey, count(*) from customer, nation, region
			where c_nationkey = n_nationkey and n_regionkey = r_regionkey and r_name = 'ASIA'
			  and c_mktsegment = 'BUILDING' and (c_custkey < 300 or c_custkey > 1200)
			group by c_nationkey`,
			db, []string{"filter"}},
		{"range bound, then staged probes", `select count(*), sum(l_extendedprice * l_discount) from lineitem, orders, supplier
			where l_orderkey = o_orderkey and l_suppkey = s_suppkey
			  and l_shipdate >= date '1995-01-01' and l_quantity < 20
			  and o_orderdate between date '1994-09-01' and date '1995-06-01'`,
			db, []string{"filter", "index"}},
		{"first stage rejects whole blocks", `select count(*), max(l_extendedprice) from lineitem, orders, supplier
			where l_orderkey = o_orderkey and l_suppkey = s_suppkey and o_orderkey between 7000 and 7100`,
			db, []string{"index", "index"}},
	}
	for _, c := range cases {
		want, err := sqlcheck.Oracle(c.db, c.text)
		if err != nil {
			t.Fatalf("%s: oracle: %v", c.name, err)
		}
		wantC := sqlcheck.Canon(want)
		pl, err := logical.Prepare(c.db, c.text)
		if err != nil {
			t.Fatalf("%s: prepare: %v", c.name, err)
		}
		for _, morsel := range []int{0, 1, probeBlock - 1, probeBlock, probeBlock + 1} {
			ctx := context.Background()
			if morsel > 0 {
				ctx = exec.WithMorselSize(ctx, morsel)
			}
			for _, workers := range []int{1, 3} {
				cp, err := LowerProgram(pl)
				if err != nil {
					t.Fatal(err)
				}
				if cp.pr.final.loop != loopRows {
					t.Fatalf("%s: final pipeline runs loop shape %d, want the survivors loop", c.name, cp.pr.final.loop)
				}
				out, err := logical.Drive(ctx, pl, workers, logical.Policy{Fused: cp}, logical.Mode{})
				if err != nil {
					t.Fatalf("%s morsel=%d w=%d: %v", c.name, morsel, workers, err)
				}
				if !sqlcheck.SameRows(sqlcheck.Canon(out.Result.Rows), wantC) {
					t.Errorf("%s morsel=%d w=%d: staged loop differs from the oracle\n got %v\nwant %v",
						c.name, morsel, workers, trunc(out.Result.Rows), trunc(want))
				}
				layouts, staged := stepLayouts(cp)
				if !reflect.DeepEqual(layouts, c.layouts) {
					t.Fatalf("%s: final steps are %v, want %v", c.name, layouts, c.layouts)
				}
				for s, l := range layouts {
					if staged[s] != (l != "hash") {
						t.Errorf("%s: step %d (%s) staged = %v", c.name, s, l, staged[s])
					}
				}
			}
		}
		if vacuous := !hasNonZero(want); vacuous != (c.name == "empty key-indexed build") {
			t.Errorf("%s: the oracle's rows are %v", c.name, trunc(want))
		}
	}
}

// hasNonZero reports whether any value of rows is non-zero: a case
// whose answer is all zeros would pass with every row dropped.
func hasNonZero(rows [][]int64) bool {
	for _, r := range rows {
		for _, v := range r {
			if v != 0 {
				return true
			}
		}
	}
	return false
}
