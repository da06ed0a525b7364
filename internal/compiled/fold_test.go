package compiled

import (
	"context"
	"math"
	"strings"
	"testing"

	"paradigms/internal/exec"
	"paradigms/internal/logical"
	"paradigms/internal/sqlcheck"
	"paradigms/internal/storage"
	"paradigms/internal/types"
)

// Block-fold coverage: every case runs its plan twice on the same data —
// with the loop shapes lowering chose, and with every pipeline forced
// onto the row loop (survivors) — and the two must agree exactly. Each
// case also states whether its final pipeline folds, so a shape that
// silently stops folding (or starts folding an expression it must not)
// fails here. The row-free cases that do not fold run the per-survivor
// sink without the per-row walks, which the same comparison covers.

// runShaped executes pl on the fused backend. rowLoop forces every
// pipeline onto survivors, the per-row loop; folded reports whether the
// final pipeline ran its block fold.
func runShaped(t *testing.T, ctx context.Context, pl *logical.Plan, workers int, rowLoop bool) (rows [][]int64, folded bool) {
	t.Helper()
	cp, err := LowerProgram(pl)
	if err != nil {
		t.Fatal(err)
	}
	if rowLoop {
		for _, p := range cp.pr.pipes {
			p.loop = loopRows
		}
	}
	folded = cp.pr.final.fold != nil && !rowLoop
	out, err := logical.Drive(ctx, pl, workers, logical.Policy{Fused: cp}, logical.Mode{})
	if err != nil {
		t.Fatal(err)
	}
	return out.Result.Rows, folded
}

type foldCase struct {
	name, text string
	folds      bool // the final pipeline folds per block
}

// checkFoldCases runs every case at morsel sizes that end a morsel
// before, on and after a block boundary (and the default, where the
// table's last block is partial), on 1 and 3 workers, and compares the
// fold with the row loop.
func checkFoldCases(t *testing.T, db *storage.Database, cases []foldCase) {
	t.Helper()
	for _, c := range cases {
		pl, err := logical.Prepare(db, c.text)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		ex, err := Explain(pl)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := strings.Contains(ex, " fold"); got != c.folds {
			t.Errorf("%s: Explain marks fold = %v, want %v:\n%s", c.name, got, c.folds, ex)
		}
		for _, morsel := range []int{0, 1, probeBlock - 1, probeBlock, probeBlock + 1} {
			ctx := context.Background()
			if morsel > 0 {
				ctx = exec.WithMorselSize(ctx, morsel)
			}
			for _, workers := range []int{1, 3} {
				got, folded := runShaped(t, ctx, pl, workers, false)
				want, _ := runShaped(t, ctx, pl, workers, true)
				if folded != c.folds {
					t.Errorf("%s: folded = %v, want %v", c.name, folded, c.folds)
				}
				if !sqlcheck.SameRows(sqlcheck.Canon(got), sqlcheck.Canon(want)) {
					t.Errorf("%s morsel=%d w=%d: fold differs from the row loop\n got %v\nwant %v",
						c.name, morsel, workers, trunc(got), trunc(want))
				}
			}
		}
	}
}

func TestBlockFold(t *testing.T) {
	tp, _ := testDBs()
	checkFoldCases(t, tp[0.01], []foldCase{
		{"no range bound (pos == nil)", `select count(*), sum(l_extendedprice * l_discount),
			sum(l_quantity), sum(l_orderkey) from lineitem`, true},
		{"bounded global", `select count(*), sum(l_extendedprice * l_discount), sum(l_quantity)
			from lineitem where l_shipdate >= date '1994-01-01' and l_discount between 0.05 and 0.07`, true},
		{"blocks where no row survives", `select count(*), sum(l_quantity), sum(l_suppkey)
			from lineitem where l_orderkey < 200`, true},
		{"contradictory bound (rejectAll)", `select count(*), sum(l_quantity)
			from lineitem where l_quantity > 50 and l_quantity < 10`, true},
		{"always false (rejectAll)", `select count(*), sum(l_quantity) from lineitem where 1 = 2`, true},
		{"MIN/MAX keep the sink", `select count(*), min(l_shipdate), max(l_extendedprice), min(l_suppkey)
			from lineitem where l_orderkey < 200`, false},
		{"sum(lit - col) keeps the sink", `select count(*), sum(1 - l_discount) from lineitem`, false},
		{"sum(a + b) keeps the sink", `select sum(l_quantity + l_discount), count(*) from lineitem where l_quantity < 24`, false},
		{"grouped array, no bound", `select l_suppkey, count(*), sum(l_extendedprice * l_discount), sum(1 - l_discount),
			min(l_shipdate), max(l_quantity) from lineitem group by l_suppkey`, false},
		{"grouped count and sum keep the sink", `select l_suppkey, count(*), sum(l_quantity), sum(l_extendedprice * l_discount)
			from lineitem where l_shipdate < date '1995-06-01' group by l_suppkey`, false},
		{"grouped array, bounded", `select o_shippriority, count(*), sum(o_totalprice), min(o_orderdate)
			from orders where o_totalprice > 1000.00 group by o_shippriority`, false},
		{"grouped hashed, empty blocks", `select l_orderkey, count(*), min(l_quantity)
			from lineitem where l_orderkey between 100 and 300 group by l_orderkey`, false},
		{"row-free projection", `select l_orderkey, l_quantity from lineitem
			where l_shipdate between date '1994-01-01' and date '1994-01-20'`, false},
		{"string equality keeps the row loop", `select count(*) from customer
			where c_mktsegment = 'BUILDING'`, false},
		{"probe keeps the row loop", `select count(*), sum(o_totalprice) from customer, orders
			where c_custkey = o_custkey and c_nationkey < 5`, false},
	})
	// 75 000 groups in a hashed layout: the row-free sink fills the
	// pre-aggregation table and spills the rest, as the row loop does.
	checkFoldCases(t, tp[0.05], []foldCase{
		{"grouped hashed, spilling", `select o_orderkey, sum(o_totalprice), count(*), min(o_orderdate)
			from orders where o_totalprice > 10.00 group by o_orderkey`, false},
	})
}

// TestBlockFoldWraps folds sums that overflow int64: block partials must
// wrap exactly as the row loop's per-row additions do.
func TestBlockFoldWraps(t *testing.T) {
	db := sqlcheck.MiniTPCH(3*probeBlock+7, true)
	li := db.Rel("lineitem")
	ext, disc := li.Numeric("l_extendedprice"), li.Numeric("l_discount")
	for i := range ext {
		ext[i] = types.Numeric(math.MaxInt64/5 + int64(i)*7919)
		disc[i] = types.Numeric(int64(i%11) * 1_000_003)
	}
	var want int64
	for _, v := range ext {
		want += int64(v)
	}
	pl, err := logical.Prepare(db, `select sum(l_extendedprice) from lineitem`)
	if err != nil {
		t.Fatal(err)
	}
	if got, folded := runShaped(t, context.Background(), pl, 1, false); !folded || got[0][0] != want {
		t.Errorf("wrapped sum = %v (folded %v), want %d", got, folded, want)
	}
	checkFoldCases(t, db, []foldCase{
		{"wrapping global", `select sum(l_extendedprice), sum(l_extendedprice * l_discount), count(*)
			from lineitem`, true},
		{"wrapping bounded global", `select sum(l_extendedprice * l_discount), count(*) from lineitem
			where l_orderkey > 100`, true},
		{"wrapping sink", `select sum(0 - l_extendedprice), max(l_extendedprice) from lineitem`, false},
	})
}
