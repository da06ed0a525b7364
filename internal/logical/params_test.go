package logical

import (
	"context"
	"sync"
	"testing"

	"paradigms/internal/sqlcheck"
)

// execArgs binds one argument set into the template and runs the bound
// plan on the vectorized lowering.
func execArgs(ctx context.Context, pl *Plan, workers int, args []int64) (*Result, error) {
	bound, err := pl.BindArgs(args)
	if err != nil {
		return nil, err
	}
	return bound.Execute(ctx, workers, 0)
}

// TestParamCondsDeferred: a table-free conjunct with a placeholder
// (`? = 1`) cannot fold at plan time; BindArgs evaluates it per
// execution — true keeps the plan live, false rejects every row.
func TestParamCondsDeferred(t *testing.T) {
	db := sqlcheck.MiniTPCH(20, true)
	pl, err := Prepare(db, "select count(*) from orders where ? = 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.ParamConds) != 1 {
		t.Fatalf("ParamConds = %d, want 1", len(pl.ParamConds))
	}
	if pl.AlwaysFalse {
		t.Fatal("template marked AlwaysFalse before binding")
	}
	ctx := context.Background()

	res, err := execArgs(ctx, pl, 1, []int64{1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != 20 {
		t.Fatalf("true conjunct: count = %d, want 20", res.Rows[0][0])
	}

	res, err = execArgs(ctx, pl, 1, []int64{2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != 0 {
		t.Fatalf("false conjunct: count = %d, want 0", res.Rows[0][0])
	}
	if pl.AlwaysFalse {
		t.Fatal("binding a false conjunct mutated the template")
	}
}

// TestBindArgsImmutableTemplate: concurrent executions of one cached
// plan with different bindings never interfere (the clone is
// copy-on-write; the template is read-only).
func TestBindArgsImmutableTemplate(t *testing.T) {
	db := sqlcheck.MiniTPCH(64, true)
	pl, err := Prepare(db, "select count(*) from lineitem where l_quantity < ?")
	if err != nil {
		t.Fatal(err)
	}
	texts := []string{"5", "20", "100"}
	vals := make([][]int64, len(texts))
	want := make([]int64, len(texts))
	for i, q := range texts {
		v, err := pl.BindTexts([]string{q})
		if err != nil {
			t.Fatal(err)
		}
		vals[i] = v
		res, err := execArgs(context.Background(), pl, 1, v)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Rows[0][0]
	}
	if want[0] == want[2] {
		t.Fatalf("degenerate fixture: all bindings count %d", want[0])
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				k := (g + i) % len(texts)
				res, err := execArgs(context.Background(), pl, 2, vals[k])
				if err != nil {
					t.Error(err)
					return
				}
				if res.Rows[0][0] != want[k] {
					t.Errorf("binding %s: count = %d, want %d", texts[k], res.Rows[0][0], want[k])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestExecuteRejectsUnboundParams: a parameterized plan cannot run
// unbound — on any of the three entry points — and arity mismatches
// are errors.
func TestExecuteRejectsUnboundParams(t *testing.T) {
	db := sqlcheck.MiniTPCH(20, true)
	pl, err := Prepare(db, "select count(*) from orders where o_custkey < ?")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pl.Execute(context.Background(), 1, 0); err == nil {
		t.Fatal("Execute ran a parameterized plan without arguments")
	}
	if _, err := pl.ExecutePartial(context.Background(), 1, 0); err == nil {
		t.Fatal("ExecutePartial ran a parameterized plan without arguments")
	}
	if _, err := pl.BindArgs([]int64{1, 2}); err == nil {
		t.Fatal("BindArgs accepted wrong arity")
	}
	if _, err := pl.BindTexts([]string{"not-a-number"}); err == nil {
		t.Fatal("BindTexts accepted a malformed argument")
	}
}
