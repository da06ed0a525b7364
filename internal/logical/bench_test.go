package logical

import (
	"context"
	"sync"
	"testing"

	"paradigms/internal/plan"
	"paradigms/internal/ssb"
	"paradigms/internal/storage"
	"paradigms/internal/tpch"
)

var (
	benchOnce sync.Once
	benchTP   *storage.Database
	benchSB   *storage.Database
)

func benchDBs() (*storage.Database, *storage.Database) {
	benchOnce.Do(func() {
		benchTP = tpch.Generate(0.1, 0)
		benchSB = ssb.Generate(0.1, 0)
	})
	return benchTP, benchSB
}

// BenchmarkSQLVsPlan compares the vectorized lowering of each query that
// keeps a hand-assembled internal/plan kernel against that kernel,
// single-threaded at the default vector size: the standing evidence for
// keeping it. Q6 and Q3 lost their hand plans when the lowering matched
// them (EXPERIMENTS.md records the last hand-vs-lowered rows).
func BenchmarkSQLVsPlan(b *testing.B) {
	tp, sb := benchDBs()
	ctx := context.Background()
	for _, q := range []struct {
		db   *storage.Database
		name string
		hand func()
	}{
		{tp, "Q5", func() { plan.Q5Ctx(ctx, tp, 1, 0) }},
		{tp, "Q18", func() { plan.Q18Ctx(ctx, tp, 1, 0) }},
		{sb, "Q2.1", func() { plan.SSBQ21Ctx(ctx, sb, 1, 0) }},
	} {
		text, _ := SQLText(q.db.Name, q.name)
		pl, err := Prepare(q.db, text)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(q.name+"/sql", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := pl.Execute(ctx, 1, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(q.name+"/plan", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q.hand()
			}
		})
	}
}

// BenchmarkSQLFrontend isolates the parse → bind → optimize → lower
// cost (no execution): planning overhead per ad-hoc statement.
func BenchmarkSQLFrontend(b *testing.B) {
	db, _ := benchDBs()
	text, _ := SQLText("tpch", "Q5")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Prepare(db, text); err != nil {
			b.Fatal(err)
		}
	}
}
