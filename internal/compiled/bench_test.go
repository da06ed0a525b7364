package compiled

import (
	"context"
	"sync"
	"testing"

	"paradigms/internal/logical"
	"paradigms/internal/ssb"
	"paradigms/internal/storage"
	"paradigms/internal/tpch"
	"paradigms/internal/typer"
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

// BenchmarkSQLCompiledVsHandTyper compares the compiled lowering of each
// query that keeps a hand-written fused Typer kernel against that
// kernel, single-threaded: the standing evidence for keeping it. Q6, Q3,
// SSB Q1.1, Q5 and SSB Q2.1 lost their kernels when the lowering matched
// or beat them (EXPERIMENTS.md records the last hand-vs-lowered rows).
func BenchmarkSQLCompiledVsHandTyper(b *testing.B) {
	tp, _ := benchDBs()
	ctx := context.Background()
	for _, q := range []struct {
		db   *storage.Database
		name string
		hand func()
	}{
		{tp, "Q18", func() { typer.Q18Ctx(ctx, tp, 1) }},
	} {
		text, _ := logical.SQLText(q.db.Name, q.name)
		pl, err := logical.Prepare(q.db, text)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(q.name+"/sql-compiled", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Execute(ctx, pl, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(q.name+"/hand-typer", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q.hand()
			}
		})
	}
}

// BenchmarkCompiledLowering isolates the lower + closure-compile cost
// (no execution): per-statement overhead of the compiled backend.
func BenchmarkCompiledLowering(b *testing.B) {
	db, _ := benchDBs()
	text, _ := logical.SQLText("tpch", "Q5")
	pl, err := logical.Prepare(db, text)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := LowerProgram(pl); err != nil {
			b.Fatal(err)
		}
	}
}
