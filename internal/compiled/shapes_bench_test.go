package compiled_test

import (
	"context"
	"sync"
	"testing"

	"paradigms/internal/engine"
	"paradigms/internal/logical"
	"paradigms/internal/ssb"
	"paradigms/internal/storage"
	"paradigms/internal/tpch"
)

var (
	shapesOnce      sync.Once
	shapesDB, ssbDB *storage.Database
)

// The join_prepared workload's Q3, Q5 and SSB Q2.1 templates, prepared
// once and bound per execution.
const (
	shapesQ3 = `select l_orderkey, sum(l_extendedprice * (1 - l_discount)) as revenue, o_orderdate, o_shippriority
from customer, orders, lineitem
where c_mktsegment = 'BUILDING' and c_custkey = o_custkey and l_orderkey = o_orderkey
and o_orderdate < ? and l_shipdate > ?
group by l_orderkey, o_orderdate, o_shippriority
order by revenue desc, o_orderdate, l_orderkey limit 10`
	shapesQ5 = `select c_nationkey, sum(l_extendedprice * (1 - l_discount)) as revenue
from customer, orders, lineitem, supplier, nation, region
where c_custkey = o_custkey and l_orderkey = o_orderkey and l_suppkey = s_suppkey
and c_nationkey = s_nationkey and s_nationkey = n_nationkey and n_regionkey = r_regionkey
and r_name = 'ASIA' and o_orderdate >= ? and o_orderdate < ?
group by c_nationkey order by revenue desc, c_nationkey`
	shapesQ21 = `select d_year, p_brand1, sum(lo_revenue) as revenue from lineorder, date, part, supplier
where lo_orderdate = d_datekey and lo_partkey = p_partkey and lo_suppkey = s_suppkey
and p_category = ? and s_region = ?
group by d_year, p_brand1 order by d_year, p_brand1`
)

// BenchmarkFusedLoopShapes times the fused loop's shapes on every
// engine at SF 0.5. Single-threaded: prepared customer_count (one
// 32-bit range bound, count(*) — the loop's cheapest shape, where the
// per-row sink used to dominate), ad-hoc Q6 (five bounds over
// lineitem, sum(col*col), parsed and planned per execution) and ad-hoc
// SSB Q1.1 (scan_adhoc's second template: int64 discount and quantity
// bounds over lineorder, then the date probe). On 2 workers: the three
// join_prepared templates — Q3, whose pipelines each probe once
// (probeOne), and Q5 and SSB Q2.1, whose final pipelines stage several
// probes per block before the row loop. Typer's time ÷
// Tectorwise's on each is the ratio EXPERIMENTS.md records (DESIGN.md
// §9).
func BenchmarkFusedLoopShapes(b *testing.B) {
	shapesOnce.Do(func() {
		shapesDB = tpch.Generate(0.5, 0)
		ssbDB = ssb.Generate(0.5, 0)
	})
	db := shapesDB
	ctx := context.Background()
	count, err := logical.Prepare(db, `select count(*) as n from customer where c_nationkey < ?`)
	if err != nil {
		b.Fatal(err)
	}
	adhoc := []struct {
		dataset, name string
		db            *storage.Database
	}{{"tpch", "Q6", db}, {"ssb", "Q1.1", ssbDB}}
	joins := []struct {
		name string
		db   *storage.Database
		text string
		args []string
	}{
		{"Q3", db, shapesQ3, []string{"1995-03-15", "1995-03-15"}},
		{"Q5", db, shapesQ5, []string{"1994-01-01", "1995-01-01"}},
		{"Q2.1", ssbDB, shapesQ21, []string{"12", "1"}},
	}
	for _, name := range []string{engine.Typer, engine.Tectorwise, engine.Hybrid} {
		b.Run("customer_count/"+name, func(b *testing.B) {
			opt := engine.Options{Args: []int64{5}, Workers: 1}
			for i := 0; i < b.N; i++ {
				if _, err := engine.Run(ctx, name, count, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
		for _, q := range adhoc {
			text, _ := logical.SQLText(q.dataset, q.name)
			b.Run(q.name+"/"+name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					pl, err := logical.Prepare(q.db, text)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := engine.Run(ctx, name, pl, engine.Options{Workers: 1}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		for _, j := range joins {
			b.Run(j.name+"/"+name, func(b *testing.B) {
				pl, err := logical.Prepare(j.db, j.text)
				if err != nil {
					b.Fatal(err)
				}
				args, err := pl.BindTexts(j.args)
				if err != nil {
					b.Fatal(err)
				}
				opt := engine.Options{Args: args, Workers: 2}
				for i := 0; i < b.N; i++ {
					if _, err := engine.Run(ctx, name, pl, opt); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkResidualShapes times residual predicates — conjuncts the
// filter classifier leaves to the expression program — on every engine
// at SF 0.5 on 2 workers, prepared once: an IN list OR-ed with a range,
// a negated arithmetic comparison AND-ed with a column-vs-column
// comparison, and a range-only control that runs no program. Each
// counts and sums the survivors, so the final pipeline runs the row
// loop on Typer and the filter chain on Tectorwise (DESIGN.md §8).
func BenchmarkResidualShapes(b *testing.B) {
	shapesOnce.Do(func() {
		shapesDB = tpch.Generate(0.5, 0)
		ssbDB = ssb.Generate(0.5, 0)
	})
	ctx := context.Background()
	shapes := []struct{ name, where string }{
		{"in_or_range", "l_quantity in (1, 5, 9, 13, 17) or l_discount < 0.02"},
		{"not_arith_and_cols", "not (l_quantity * 2 > l_tax + 30) and l_suppkey < l_partkey"},
		{"range_only", "l_quantity < 10"},
	}
	for _, name := range []string{engine.Typer, engine.Tectorwise, engine.Hybrid} {
		for _, s := range shapes {
			pl, err := logical.Prepare(shapesDB, "select count(*), sum(l_extendedprice) from lineitem where "+s.where)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(s.name+"/"+name, func(b *testing.B) {
				opt := engine.Options{Workers: 2}
				for i := 0; i < b.N; i++ {
					if _, err := engine.Run(ctx, name, pl, opt); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
