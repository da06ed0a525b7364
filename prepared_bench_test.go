package paradigms

// Prepared-statement benchmarks: what the plan cache buys. The adhoc
// variants pay parse → bind → optimize on every execution (the PR 3/4
// ad-hoc path); the prepared variants bind arguments into the cached
// plan and execute. planonly isolates the amortized cost itself.
// Numbers are recorded in EXPERIMENTS.md.

import (
	"context"
	"testing"

	"paradigms/internal/engine"
	"paradigms/internal/logical"
	"paradigms/internal/server"
)

// The Q6-class statement of the acceptance criterion: a parameterized
// selective scan with fixed-point arithmetic.
const benchParamQ6 = `select sum(l_extendedprice * l_discount) as revenue
from lineitem
where l_shipdate >= ? and l_shipdate < ?
  and l_discount between ? and ? and l_quantity < ?`

var benchQ6Args = []string{"1994-01-01", "1995-01-01", "0.05", "0.07", "24"}

// BenchmarkPreparedVsAdhoc compares cache-hit execution (bind+run of
// the cached parameterized plan) against uncached ad-hoc execution
// (parse+bind+plan+run of the literal text) on both backends, plus the
// isolated parse+bind+plan cost the cache amortizes away.
func BenchmarkPreparedVsAdhoc(b *testing.B) {
	db, _ := benchDBs2()
	ctx := context.Background()
	lit := `select sum(l_extendedprice * l_discount) as revenue
from lineitem
where l_shipdate >= date '1994-01-01' and l_shipdate < date '1995-01-01'
  and l_discount between 0.05 and 0.07 and l_quantity < 24`

	pl, err := logical.Prepare(db, benchParamQ6)
	if err != nil {
		b.Fatal(err)
	}
	vals, err := pl.BindTexts(benchQ6Args)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("planonly", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := logical.Prepare(db, lit); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, eng := range []Engine{Tectorwise, Typer} {
		b.Run(string(eng)+"/adhoc", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := RunContext(ctx, db, eng, lit, Options{Workers: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(string(eng)+"/prepared", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := engine.Run(ctx, string(eng), pl, engine.Options{Args: vals, Workers: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchDBs2 reuses the root SQL-test databases (SF 0.01) so the bench
// measures planning amortization on a realistic but quick instance.
func benchDBs2() (*DB, *DB) { return sqlDBs() }

// BenchmarkServicePreparedThroughput drives the full service closed-
// loop from 8 clients: the adhoc variant submits the literal SQL text
// (re-planned every execution), the prepared variant executes the
// cached statement with bound arguments, and the auto variant runs it
// on the hybrid. The spread is the serve-path cost of not having a plan
// cache.
func BenchmarkServicePreparedThroughput(b *testing.B) {
	db, ssb := benchDBs2()
	lit := `select sum(l_extendedprice * l_discount) as revenue
from lineitem
where l_shipdate >= date '1994-01-01' and l_shipdate < date '1995-01-01'
  and l_discount between 0.05 and 0.07 and l_quantity < 24`

	const clients = 8
	run := func(b *testing.B, do func(ctx context.Context, svc *server.Service, p *server.Prepared, i int) error, prepare bool) {
		svc := NewService(db, ssb, ServiceOptions{})
		defer svc.Close()
		var p *server.Prepared
		if prepare {
			var err error
			if p, err = svc.Prepare(benchParamQ6); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		work := make(chan int)
		done := make(chan error, clients)
		for c := 0; c < clients; c++ {
			go func() {
				ctx := context.Background()
				for i := range work {
					if err := do(ctx, svc, p, i); err != nil {
						done <- err
						return
					}
				}
				done <- nil
			}()
		}
		for i := 0; i < b.N; i++ {
			work <- i
		}
		close(work)
		for c := 0; c < clients; c++ {
			if err := <-done; err != nil {
				b.Fatal(err)
			}
		}
	}

	engines := []string{"typer", "tectorwise"}
	b.Run("adhoc", func(b *testing.B) {
		run(b, func(ctx context.Context, svc *server.Service, _ *server.Prepared, i int) error {
			_, err := svc.Do(ctx, engines[i%2], lit)
			return err
		}, false)
	})
	b.Run("prepared", func(b *testing.B) {
		run(b, func(ctx context.Context, svc *server.Service, p *server.Prepared, i int) error {
			_, err := svc.DoPrepared(ctx, engines[i%2], p, benchQ6Args...)
			return err
		}, true)
	})
	b.Run("prepared-auto", func(b *testing.B) {
		run(b, func(ctx context.Context, svc *server.Service, p *server.Prepared, i int) error {
			_, err := svc.DoPrepared(ctx, "auto", p, benchQ6Args...)
			return err
		}, true)
	})
}
