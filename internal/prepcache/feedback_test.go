package prepcache

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"paradigms/internal/catalog"
	"paradigms/internal/engine"
	"paradigms/internal/feedback"
	"paradigms/internal/logical"
	"paradigms/internal/sqlcheck"
	"paradigms/internal/storage"
)

// skewDB builds a database whose value distribution contradicts the
// planner's static selectivity estimates in both directions: supplier's
// equality filter (s_status has 50 values, so guessed 1/50) actually
// keeps 90% of rows, and part's range filter (guessed 0.3) actually
// keeps 3%. The static join order therefore probes the big dimension
// first; the observed cardinalities say to probe the tiny one first.
// lineitem is the fact spine.
func skewDB(nLine, nDim int) *storage.Database {
	db := storage.NewDatabase("skew", 0)

	supp := storage.NewRelation("supplier")
	sk := make([]int32, nDim)
	ss := make([]int32, nDim)
	for i := range sk {
		sk[i] = int32(i + 1)
		ss[i] = 1 // 90% of suppliers have status 1 ...
		if i%10 == 0 {
			ss[i] = int32(i/10)%49 + 2 // ... the rest spread over 2..50
		}
	}
	supp.AddInt32("s_suppkey", sk)
	supp.AddInt32("s_status", ss)
	db.Add(supp)

	part := storage.NewRelation("part")
	pk := make([]int32, nDim)
	pz := make([]int32, nDim)
	for i := range pk {
		pk[i] = int32(i + 1)
		pz[i] = int32(i%100) + 1 // sizes 1..100: p_size < 4 keeps 3%
	}
	part.AddInt32("p_partkey", pk)
	part.AddInt32("p_size", pz)
	db.Add(part)

	line := storage.NewRelation("lineitem")
	lsk := make([]int32, nLine)
	lpk := make([]int32, nLine)
	lp := make([]int32, nLine)
	for i := range lsk {
		lsk[i] = int32(i%nDim) + 1
		lpk[i] = int32((i*7)%nDim) + 1
		lp[i] = int32(i%97) + 1
	}
	line.AddInt32("l_suppkey", lsk)
	line.AddInt32("l_partkey", lpk)
	line.AddInt32("l_price", lp)
	db.Add(line)
	return db
}

const skewQuery = `select sum(l_price) as rev from lineitem, supplier, part
	where l_suppkey = s_suppkey and l_partkey = p_partkey and s_status = 1 and p_size < 4`

// feedbackStatement prepares skewQuery as a feedback-armed statement.
func feedbackStatement(t testing.TB, db *storage.Database) (*Statement, *feedback.Store) {
	t.Helper()
	pl, err := logical.Prepare(db, skewQuery)
	if err != nil {
		t.Fatal(err)
	}
	st := NewStatement(Normalize(skewQuery), pl)
	store := feedback.NewStore()
	st.EnableFeedback(store, catalog.For(db).Version, func(h logical.CardHints) (*logical.Plan, error) {
		return logical.PrepareHints(db, skewQuery, h)
	})
	return st, store
}

// TestFeedbackDriftTriggersReplan is the tentpole's end-to-end proof:
// on the skewed database the static plan's estimates drift ~45x from the
// observed cardinalities, the sustained drift re-plans the statement
// with observed selectivities after exactly DriftRuns executions, the
// re-planned join order differs (the truly-selective part chain moves
// ahead of the truly-wide supplier chain), every execution before and
// after the swap matches the trusted oracle, and — because the
// re-planned plan's estimates come from the same observations — the
// loop converges: no further re-plans.
func TestFeedbackDriftTriggersReplan(t *testing.T) {
	db := skewDB(20000, 2000)
	want, err := sqlcheck.Oracle(db, skewQuery)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := feedbackStatement(t, db)
	before := st.Plan().Format()
	ctx := context.Background()

	exec := func(run int) {
		t.Helper()
		res, _, err := st.Execute(ctx, engine.Tectorwise, nil, 2, 0)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if !reflect.DeepEqual(res.Rows, want) {
			t.Fatalf("run %d: result %v differs from oracle %v", run, res.Rows, want)
		}
	}

	for run := 1; run < feedback.DriftRuns; run++ {
		exec(run)
		if n := st.Replans(); n != 0 {
			t.Fatalf("replanned after %d runs (want none before %d sustained drifts)", run, feedback.DriftRuns)
		}
	}
	exec(feedback.DriftRuns)
	if n := st.Replans(); n != 1 {
		t.Fatalf("Replans() = %d after %d drifting runs, want 1", n, feedback.DriftRuns)
	}
	after := st.Plan().Format()
	if after == before {
		t.Fatalf("replan kept the static join order:\n%s", after)
	}
	// The observed selectivities invert the chain order: part (3%
	// observed vs 30% guessed) becomes the first-probed build chain,
	// supplier (90% observed vs 2% guessed) the outermost. In the
	// formatted tree the first-probed chain is the innermost, i.e.
	// printed after the outer build.
	if sup, prt := strings.Index(after, "scan supplier"), strings.Index(after, "scan part"); sup < 0 || prt < 0 || sup > prt {
		t.Fatalf("re-planned order did not move part's build inward:\n%s", after)
	}

	// Convergence: the re-planned statement observes drift ~1 and keeps
	// its plan — and keeps producing oracle-identical results.
	for run := 1; run <= 2*feedback.DriftRuns; run++ {
		exec(run)
	}
	if n := st.Replans(); n != 1 {
		t.Fatalf("feedback loop did not converge: %d replans after post-swap runs", n)
	}
}

// TestFeedbackReplanAcrossEngines: drift accumulated by whichever
// engine runs still re-plans, and the compiled backend executes the
// re-planned template identically to the oracle (the plan swap is
// engine-agnostic — both lowerings consume the same template).
func TestFeedbackReplanAcrossEngines(t *testing.T) {
	db := skewDB(20000, 2000)
	want, err := sqlcheck.Oracle(db, skewQuery)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := feedbackStatement(t, db)
	ctx := context.Background()
	engines := []string{engine.Typer, engine.Tectorwise, engine.Typer}
	for i, eng := range engines {
		res, _, err := st.Execute(ctx, eng, nil, 2, 0)
		if err != nil {
			t.Fatalf("%s run %d: %v", eng, i, err)
		}
		if !reflect.DeepEqual(res.Rows, want) {
			t.Fatalf("%s run %d: result differs from oracle", eng, i)
		}
	}
	if n := st.Replans(); n != 1 {
		t.Fatalf("Replans() = %d after mixed-engine drifting runs, want 1", n)
	}
	res, _, err := st.Execute(ctx, engine.Typer, nil, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Rows, want) {
		t.Fatal("compiled execution of the re-planned template differs from oracle")
	}
}

// BenchmarkFeedbackReplan quantifies the tentpole's payoff: the same
// skewed query executed from the static plan vs the feedback-re-planned
// one. The static order probes the 90%-retained supplier hash table
// first, so almost every fact row pays the second probe too; the
// re-planned order eliminates 97% of fact rows on the tiny part table
// first.
func BenchmarkFeedbackReplan(b *testing.B) {
	db := skewDB(300000, 5000)
	static, err := logical.Prepare(db, skewQuery)
	if err != nil {
		b.Fatal(err)
	}
	st, _ := feedbackStatement(b, db)
	ctx := context.Background()
	for i := 0; i < feedback.DriftRuns; i++ {
		if _, _, err := st.Execute(ctx, engine.Tectorwise, nil, 2, 0); err != nil {
			b.Fatal(err)
		}
	}
	replanned := st.Plan()
	if replanned.Format() == static.Format() {
		b.Fatal("feedback did not change the join order")
	}
	for name, pl := range map[string]*logical.Plan{"static": static, "replanned": replanned} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := pl.Execute(ctx, 2, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
