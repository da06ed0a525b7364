package prepcache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"paradigms/internal/catalog"
	"paradigms/internal/engine"
	"paradigms/internal/feedback"
	"paradigms/internal/logical"
	"paradigms/internal/sqlcheck"
	"paradigms/internal/storage"
)

// TestNormalize: whitespace collapses, case folds, comments drop —
// but string literals pass through verbatim.
func TestNormalize(t *testing.T) {
	cases := []struct{ in, want string }{
		{"select 1", "select 1"},
		{"SELECT   1 ;", "select 1"},
		{"select\n\t1\n;", "select 1"},
		{"select x -- comment\nfrom t", "select x from t"},
		{"SELECT 'UPPER  CASE' FROM T", "select 'UPPER  CASE' from t"},
		{"select c from t where s = 'a;b'", "select c from t where s = 'a;b'"},
		{"  select  1  ", "select 1"},
		// '' is an escaped quote: the scanner must not leave the string
		// there, or the trailing data would case-fold and collide
		// distinct statements onto one cache key.
		{"SELECT C FROM T WHERE S = 'it''s  OK'", "select c from t where s = 'it''s  OK'"},
	}
	for _, c := range cases {
		if got := Normalize(c.in); got != c.want {
			t.Errorf("Normalize(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	if Normalize("SELECT 1  FROM  t") != Normalize("select 1 from t;") {
		t.Error("equivalent spellings normalize differently")
	}
}

func miniCat(t *testing.T) (*storage.Database, func(string) func() (*logical.Plan, error)) {
	t.Helper()
	db := sqlcheck.MiniTPCH(20, true)
	build := func(text string) func() (*logical.Plan, error) {
		return func() (*logical.Plan, error) { return logical.Prepare(db, text) }
	}
	return db, build
}

// TestCacheLRUAndCounters: hits, misses, LRU eviction order, and the
// freshening effect of a hit.
func TestCacheLRUAndCounters(t *testing.T) {
	db, build := miniCat(t)
	cat := catalog.For(db)
	c := New(2)

	q := func(i int) string { return fmt.Sprintf("select count(*) from orders where o_custkey < %d", i) }

	if _, hit, err := c.GetOrPrepare(cat, q(1), build(q(1))); err != nil || hit {
		t.Fatalf("first lookup: hit=%v err=%v", hit, err)
	}
	if _, hit, _ := c.GetOrPrepare(cat, q(1), build(q(1))); !hit {
		t.Fatal("second lookup of same text missed")
	}
	// Different spelling, same normalized text: still a hit.
	if _, hit, _ := c.GetOrPrepare(cat, "SELECT COUNT(*)  FROM orders WHERE o_custkey < 1;", build(q(1))); !hit {
		t.Fatal("normalized-equal spelling missed")
	}

	c.GetOrPrepare(cat, q(2), build(q(2))) // cache now [q2 q1]
	c.GetOrPrepare(cat, q(1), build(q(1))) // freshen q1 → [q1 q2]
	c.GetOrPrepare(cat, q(3), build(q(3))) // evicts q2 → [q3 q1]

	if _, hit, _ := c.GetOrPrepare(cat, q(1), build(q(1))); !hit {
		t.Fatal("freshened entry was evicted (LRU order wrong)")
	}
	if _, hit, _ := c.GetOrPrepare(cat, q(2), build(q(2))); hit {
		t.Fatal("LRU victim still cached")
	}

	hits, misses, evictions, size := c.Stats()
	if hits != 4 {
		t.Errorf("hits = %d, want 4", hits)
	}
	if misses != 4 { // q1, q2, q3, and the re-prepare of evicted q2
		t.Errorf("misses = %d, want 4", misses)
	}
	if hits+misses != 8 {
		t.Errorf("hits+misses = %d, want 8 lookups", hits+misses)
	}
	if evictions == 0 {
		t.Error("no evictions recorded despite capacity overflow")
	}
	if size > 2 {
		t.Errorf("cache size %d exceeds capacity 2", size)
	}
}

// TestCacheKeyIncludesCatalogVersion: the same SQL against two
// database instances occupies two slots, and Lookup addresses them one
// catalog at a time.
func TestCacheKeyIncludesCatalogVersion(t *testing.T) {
	db1 := sqlcheck.MiniTPCH(20, true)
	db2 := sqlcheck.MiniTPCH(20, true)
	c := New(8)
	const q = "select count(*) from orders"
	if _, hit, err := c.GetOrPrepare(catalog.For(db1), q,
		func() (*logical.Plan, error) { return logical.Prepare(db1, q) }); err != nil || hit {
		t.Fatalf("db1: hit=%v err=%v", hit, err)
	}
	if _, hit, err := c.GetOrPrepare(catalog.For(db2), q,
		func() (*logical.Plan, error) { return logical.Prepare(db2, q) }); err != nil || hit {
		t.Fatalf("db2 must miss (different catalog version): hit=%v err=%v", hit, err)
	}

	// Lookup probes one catalog's key: a built statement counts a hit
	// and freshens, absence counts nothing — so a caller probing several
	// catalogs before GetOrPrepare counts once per logical prepare.
	db3 := sqlcheck.MiniTPCH(20, true)
	if st, ok := c.Lookup(catalog.For(db3).Version, q); ok || st != nil {
		t.Fatal("Lookup under an unseen catalog version found a statement")
	}
	if st, ok := c.Lookup(catalog.For(db2).Version, q); !ok || st.Text != q {
		t.Fatalf("Lookup of a cached statement: %v, %v", st, ok)
	}
	if hits, misses, _, _ := c.Stats(); hits != 1 || misses != 2 {
		t.Errorf("after two misses, one absent Lookup and one found: hits=%d misses=%d, want 1 and 2", hits, misses)
	}
}

// TestCacheErrorsNotCached: a statement that fails to prepare is
// rebuilt on the next lookup rather than serving a stale error.
func TestCacheErrorsNotCached(t *testing.T) {
	db, _ := miniCat(t)
	cat := catalog.For(db)
	c := New(4)
	boom := errors.New("boom")
	calls := 0
	build := func() (*logical.Plan, error) { calls++; return nil, boom }
	if _, _, err := c.GetOrPrepare(cat, "select bogus", build); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, _, err := c.GetOrPrepare(cat, "select bogus", build); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if calls != 2 {
		t.Fatalf("build ran %d times, want 2 (errors must not cache)", calls)
	}
	_, _, _, size := c.Stats()
	if size != 0 {
		t.Fatalf("failed entries left in cache: size=%d", size)
	}
}

// TestCacheConcurrentSingleBuild: many concurrent first-preparers of
// one text build the plan exactly once and all receive it.
func TestCacheConcurrentSingleBuild(t *testing.T) {
	db, _ := miniCat(t)
	cat := catalog.For(db)
	c := New(4)
	const q = "select count(*) from lineitem where l_quantity < ?"
	var calls int32
	var mu sync.Mutex
	var wg sync.WaitGroup
	stmts := make([]*Statement, 16)
	for i := range stmts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, _, err := c.GetOrPrepare(cat, q, func() (*logical.Plan, error) {
				mu.Lock()
				calls++
				mu.Unlock()
				return logical.Prepare(db, q)
			})
			if err != nil {
				t.Error(err)
				return
			}
			stmts[i] = st
		}(i)
	}
	wg.Wait()
	if calls != 1 {
		t.Fatalf("plan built %d times, want 1", calls)
	}
	for _, st := range stmts[1:] {
		if st != stmts[0] {
			t.Fatal("concurrent preparers received different statements")
		}
	}
}

// TestStatementExecuteEngines: one cached statement executes on every
// explicit engine and via Auto, with identical rows everywhere. Every
// engine is a fixed policy: hybrid runs the cost heuristic's assignment
// every time, and Auto is another name for hybrid — it reports the same
// assignment on every execution, keeping nothing from one run to the
// next.
func TestStatementExecuteEngines(t *testing.T) {
	db, _ := miniCat(t)
	cat := catalog.For(db)
	c := New(4)
	// One filter-only grouped pipeline: the heuristic runs it compiled.
	const q = "select o_custkey, count(*) from orders where o_custkey < ? group by o_custkey order by 1"
	st, _, err := c.GetOrPrepare(cat, q, func() (*logical.Plan, error) { return logical.Prepare(db, q) })
	if err != nil {
		t.Fatal(err)
	}
	vals, err := st.BindTexts([]string{"7"})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var results []*logical.Result
	for _, tc := range []struct{ name, used string }{
		{engine.Typer, engine.Typer},
		{engine.Tectorwise, engine.Tectorwise},
		{engine.Hybrid, engine.Hybrid + "[t]"},
		{Auto, engine.Hybrid + "[t]"},
		{Auto, engine.Hybrid + "[t]"},
		{Auto, engine.Hybrid + "[t]"},
		{engine.Hybrid, engine.Hybrid + "[t]"},
	} {
		res, used, err := st.Execute(ctx, tc.name, vals, 2, 0)
		if err != nil || used != tc.used {
			t.Fatalf("%s: used=%q err=%v, want %q", tc.name, used, err, tc.used)
		}
		results = append(results, res)
	}
	for i, res := range results[1:] {
		if !sqlcheck.SameRows(sqlcheck.Canon(res.Rows), sqlcheck.Canon(results[0].Rows)) {
			t.Fatalf("execution %d disagrees with typer: %v vs %v", i+1, res.Rows, results[0].Rows)
		}
	}
	if _, _, err := st.Execute(ctx, "bogus", vals, 1, 0); err == nil {
		t.Fatal("unknown engine accepted")
	}
	if _, err := st.BindTexts([]string{"1", "2"}); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

// failingSink accepts the header and fails the first row batch — a
// client that disconnects mid-stream.
type failingSink struct{}

var errSinkGone = errors.New("client went away")

func (failingSink) SetCols([]logical.OutCol) error { return nil }
func (failingSink) PushRows([][]int64) error       { return errSinkGone }

// feedbackArmedStatement prepares a one-parameter projection outside
// any cache, arms its cardinality feedback, and returns it with its
// feedback store and a valid binding.
func feedbackArmedStatement(t *testing.T) (*Statement, *feedback.Store, []int64) {
	t.Helper()
	db, _ := miniCat(t)
	const q = "select o_orderkey, o_custkey from orders where o_custkey < ?"
	pl, err := logical.Prepare(db, q)
	if err != nil {
		t.Fatal(err)
	}
	st := NewStatement(Normalize(q), pl)
	store := feedback.NewStore()
	st.EnableFeedback(store, catalog.For(db).Version, func(h logical.CardHints) (*logical.Plan, error) {
		return logical.PrepareHints(db, q, h)
	})
	vals, err := st.BindTexts([]string{"1000"})
	if err != nil {
		t.Fatal(err)
	}
	return st, store, vals
}

var engineNames = []string{engine.Typer, engine.Tectorwise, engine.Hybrid, Auto}

// TestFailingSinkDoesNotFeedFeedback: only a completed execution may
// feed the statement's cardinality feedback. A sink that fails
// mid-stream returns its error under a live caller context (the
// executor cancels its derived context, not the caller's), and its
// truncated run observed only part of each pipeline — recording it
// would make disconnecting clients look like drift.
func TestFailingSinkDoesNotFeedFeedback(t *testing.T) {
	st, store, vals := feedbackArmedStatement(t)
	for _, name := range engineNames {
		if _, err := st.Run(context.Background(), name, engine.Options{Args: vals, Workers: 2, Chunk: 4, Sink: failingSink{}}); !errors.Is(err, errSinkGone) {
			t.Fatalf("%s: failing sink returned %v, want the sink's error", name, err)
		}
		if n := store.Len(); n != 0 {
			t.Errorf("%s: a failing sink recorded feedback for %d statements", name, n)
		}
	}
	// The same statement, completed, does record: the check above is
	// not vacuous.
	if _, _, err := st.Execute(context.Background(), Auto, vals, 2, 0); err != nil {
		t.Fatal(err)
	}
	if n := store.Len(); n != 1 {
		t.Errorf("a completed execution recorded feedback for %d statements, want 1", n)
	}
}

// TestWrongArityBindDoesNotFeedFeedback: an argument binding of the
// wrong arity is the caller's error, rejected before any backend runs,
// on the materializing and the streaming path alike, and it records
// nothing in the statement's feedback.
func TestWrongArityBindDoesNotFeedFeedback(t *testing.T) {
	st, store, vals := feedbackArmedStatement(t)
	ctx := context.Background()
	for _, name := range engineNames {
		if _, _, err := st.Execute(ctx, name, nil, 2, 0); err == nil {
			t.Fatalf("%s: wrong-arity binding accepted", name)
		}
		if _, err := st.Run(ctx, name, engine.Options{Args: append(vals, 1), Workers: 2, Chunk: 4, Sink: failingSink{}}); err == nil {
			t.Fatalf("%s: wrong-arity streamed binding accepted", name)
		}
		if n := store.Len(); n != 0 {
			t.Errorf("%s: a wrong-arity binding recorded feedback for %d statements", name, n)
		}
	}
}
