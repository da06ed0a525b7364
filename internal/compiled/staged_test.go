package compiled_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"paradigms/internal/compiled"
	"paradigms/internal/exec"
	"paradigms/internal/hybrid"
	"paradigms/internal/logical"
	"paradigms/internal/plan"
	"paradigms/internal/queries"
	"paradigms/internal/sqlcheck"
	"paradigms/internal/storage"
)

// Staged-probe coverage: every probe step whose build published a key
// index or an exact key filter gets a membership stage
// (logical.(*Pipeline).Members) that narrows each block's selection
// before any probe work — in Typer's block loop ahead of the row loop,
// in Tectorwise's FilterChain ahead of the first HashProbe, and in the
// hybrid through whichever backend runs the pipeline. Each case runs
// on the fused backend at morsel sizes that end a morsel before, on and
// after a block boundary (and the default, where the table's last
// block is partial), and on the vectorized backend and the hybrid at
// vector sizes around the kernels' 8-lane blocks, on 1 and 3 workers,
// against the oracle; and each pins the layout its final pipeline's
// steps met and which of them staged, so a case that stops exercising
// its layout fails here instead of passing vacuously.

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

// stepLayouts reports the layout and staging of each step of an
// executed plan's final pipeline.
func stepLayouts(final *logical.Pipeline) (layouts []string, staged []bool) {
	for _, st := range final.Steps {
		ht := st.Build.HT()
		switch {
		case ht.KeyIndex().On():
			layouts = append(layouts, "index")
		case ht.KeyFilter().Bits() > 0:
			layouts = append(layouts, "filter")
		default:
			layouts = append(layouts, "hash")
		}
		staged = append(staged, false)
	}
	for _, m := range final.Members() {
		staged[m.Step] = true
	}
	return layouts, staged
}

func TestStagedProbes(t *testing.T) {
	tp, _ := compiled.SharedDBs()
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
	// run is one engine configuration: its policy over pl and the
	// decomposition it runs.
	type run struct {
		name    string
		morsels []int
		policy  func(pl *logical.Plan) (logical.Policy, []*logical.Pipeline)
	}
	block := compiled.ProbeBlock
	runs := []run{{"typer", []int{0, 1, block - 1, block, block + 1}, func(pl *logical.Plan) (logical.Policy, []*logical.Pipeline) {
		cp, err := compiled.LowerProgram(pl)
		if err != nil {
			t.Fatal(err)
		}
		if !compiled.FinalRunsSurvivors(cp) {
			t.Fatal("final pipeline does not run the survivors loop")
		}
		return logical.Policy{Fused: cp}, cp.Pipelines()
	}}}
	for _, vec := range []int{1, 7, 1024, 4096} {
		runs = append(runs, run{fmt.Sprintf("tectorwise/vec=%d", vec), []int{0, block + 1}, func(pl *logical.Plan) (logical.Policy, []*logical.Pipeline) {
			vp, err := logical.LowerVec(pl)
			if err != nil {
				t.Fatal(err)
			}
			return logical.Policy{Vec: vp, VecSize: vec}, vp.Pipelines()
		}}, run{fmt.Sprintf("hybrid/vec=%d", vec), []int{0, block + 1}, func(pl *logical.Plan) (logical.Policy, []*logical.Pipeline) {
			pol, err := hybrid.Policy(pl, vec)
			if err != nil {
				t.Fatal(err)
			}
			return pol, pol.Vec.Pipelines()
		}})
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
		for _, r := range runs {
			for _, morsel := range r.morsels {
				ctx := context.Background()
				if morsel > 0 {
					ctx = exec.WithMorselSize(ctx, morsel)
				}
				for _, workers := range []int{1, 3} {
					pol, pipes := r.policy(pl)
					out, err := logical.Drive(ctx, pl, workers, pol, logical.Mode{})
					if err != nil {
						t.Fatalf("%s %s morsel=%d w=%d: %v", c.name, r.name, morsel, workers, err)
					}
					if !sqlcheck.SameRows(sqlcheck.Canon(out.Result.Rows), wantC) {
						t.Errorf("%s %s morsel=%d w=%d: staged probes differ from the oracle\n got %v\nwant %v",
							c.name, r.name, morsel, workers, trunc(out.Result.Rows), trunc(want))
					}
					layouts, staged := stepLayouts(pipes[len(pipes)-1])
					if !reflect.DeepEqual(layouts, c.layouts) {
						t.Fatalf("%s %s: final steps are %v, want %v", c.name, r.name, layouts, c.layouts)
					}
					for s, l := range layouts {
						if staged[s] != (l != "hash") {
							t.Errorf("%s %s: step %d (%s) staged = %v", c.name, r.name, s, l, staged[s])
						}
					}
				}
			}
		}
		if vacuous := !hasNonZero(want); vacuous != (c.name == "empty key-indexed build") {
			t.Errorf("%s: the oracle's rows are %v", c.name, trunc(want))
		}
	}
	// The hand-written Tectorwise plans probe without membership
	// stages: tw.Prober runs the key-filter kernel itself (Q5's orders
	// build is filtered by date, so its keys are sparse).
	tp, ssb := compiled.SharedDBs()
	for _, vec := range []int{1, 7, 1024} {
		for _, workers := range []int{1, 3} {
			if got, want := plan.Q5Ctx(context.Background(), tp[0.01], workers, vec), queries.RefQ5(tp[0.01]); !reflect.DeepEqual(got, want) || len(want) == 0 {
				t.Errorf("hand plan Q5 vec=%d w=%d: %v, want %v", vec, workers, got, want)
			}
			if got, want := plan.SSBQ21Ctx(context.Background(), ssb[0.01], workers, vec), queries.RefSSBQ21(ssb[0.01]); !reflect.DeepEqual(got, want) || len(want) == 0 {
				t.Errorf("hand plan SSB Q2.1 vec=%d w=%d: %d rows, want %d", vec, workers, len(got), len(want))
			}
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

func trunc(rows [][]int64) [][]int64 {
	if len(rows) > 8 {
		return rows[:8]
	}
	return rows
}
