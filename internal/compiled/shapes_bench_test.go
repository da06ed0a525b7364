package compiled_test

import (
	"context"
	"sync"
	"testing"

	"paradigms/internal/engine"
	"paradigms/internal/logical"
	"paradigms/internal/storage"
	"paradigms/internal/tpch"
)

var (
	shapesOnce sync.Once
	shapesDB   *storage.Database
)

// BenchmarkFusedLoopShapes times the two row-free shapes of the fused
// loop on every engine, single-threaded at SF 0.5: prepared
// customer_count (one 32-bit range bound, count(*) — the loop's
// cheapest shape, where the per-row sink used to dominate) and ad-hoc
// Q6 (five bounds over lineitem, sum(col*col), parsed and planned per
// execution). Typer's customer_count ÷ Tectorwise's is the ratio
// EXPERIMENTS.md records for the block fold (DESIGN.md §9).
func BenchmarkFusedLoopShapes(b *testing.B) {
	shapesOnce.Do(func() { shapesDB = tpch.Generate(0.5, 0) })
	db := shapesDB
	ctx := context.Background()
	count, err := logical.Prepare(db, `select count(*) as n from customer where c_nationkey < ?`)
	if err != nil {
		b.Fatal(err)
	}
	q6, _ := logical.SQLText("tpch", "Q6")
	for _, name := range []string{engine.Typer, engine.Tectorwise, engine.Hybrid} {
		b.Run("customer_count/"+name, func(b *testing.B) {
			opt := engine.Options{Args: []int64{5}, Workers: 1}
			for i := 0; i < b.N; i++ {
				if _, err := engine.Run(ctx, name, count, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("Q6/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pl, err := logical.Prepare(db, q6)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := engine.Run(ctx, name, pl, engine.Options{Workers: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
