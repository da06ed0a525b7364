// Package registry is the table of named benchmark queries — an
// extension beyond the paper's fixed query set, used by the
// paper-reproduction side (the facade's Run, internal/bench, cmd/repro).
// Each name has a reference oracle (internal/queries) and runs on an
// engine one of two ways: through its hand-written kernel where the
// table lists one (internal/typer, internal/tw, internal/plan), or else
// as its canonical SQL text (logical.SQLText) through the one SQL driver
// every engine shares (logical.Prepare + engine.Run). A name keeps a
// hand kernel only where the driver's plan is measurably slower
// (EXPERIMENTS.md); Q6, Q3 and SSB Q1.1 have none.
package registry

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"paradigms/internal/engine"
	"paradigms/internal/logical"
	"paradigms/internal/plan"
	"paradigms/internal/queries"
	"paradigms/internal/sql"
	"paradigms/internal/storage"
	"paradigms/internal/tw"
	"paradigms/internal/typer"
)

// kernel runs one hand-written query and returns its typed result
// (queries.Q1Result, …). Kernels honor ctx the way the engines do: once
// it is done their dispatchers report exhaustion and they return a
// partial result the caller discards.
type kernel func(ctx context.Context, db *storage.Database, workers, vec int) any

// fused adapts a Typer kernel (fused pipelines have no vector size).
func fused[T any](f func(context.Context, *storage.Database, int) T) kernel {
	return func(ctx context.Context, db *storage.Database, workers, _ int) any { return f(ctx, db, workers) }
}

// vectorized adapts a Tectorwise kernel.
func vectorized[T any](f func(context.Context, *storage.Database, int, int) T) kernel {
	return func(ctx context.Context, db *storage.Database, workers, vec int) any { return f(ctx, db, workers, vec) }
}

// oracle adapts a reference implementation.
func oracle[T any](f func(*storage.Database) T) func(*storage.Database) any {
	return func(db *storage.Database) any { return f(db) }
}

// query is one named query. A nil kernel means that engine runs the
// query's SQL text.
type query struct {
	dataset, name     string
	typer, tectorwise kernel
	ref               func(*storage.Database) any
}

// table lists every named query in canonical order: the paper's
// experiment subsets (queries.TPCHQueries, queries.SSBQueries), then the
// extension query Q5.
var table = [...]query{
	{dataset: "tpch", name: "Q1", typer: fused(typer.Q1Ctx), tectorwise: vectorized(tw.Q1Ctx), ref: oracle(queries.RefQ1)},
	{dataset: "tpch", name: "Q6", ref: oracle(queries.RefQ6)},
	{dataset: "tpch", name: "Q3", ref: oracle(queries.RefQ3)},
	{dataset: "tpch", name: "Q9", typer: fused(typer.Q9Ctx), tectorwise: vectorized(tw.Q9Ctx), ref: oracle(queries.RefQ9)},
	{dataset: "tpch", name: "Q18", typer: fused(typer.Q18Ctx), tectorwise: vectorized(plan.Q18Ctx), ref: oracle(queries.RefQ18)},
	{dataset: "tpch", name: "Q5", tectorwise: vectorized(plan.Q5Ctx), ref: oracle(queries.RefQ5)},
	{dataset: "ssb", name: "Q1.1", ref: oracle(queries.RefSSBQ11)},
	{dataset: "ssb", name: "Q2.1", tectorwise: vectorized(plan.SSBQ21Ctx), ref: oracle(queries.RefSSBQ21)},
	{dataset: "ssb", name: "Q3.1", typer: fused(typer.SSBQ31Ctx), tectorwise: vectorized(tw.SSBQ31Ctx), ref: oracle(queries.RefSSBQ31)},
	{dataset: "ssb", name: "Q4.1", typer: fused(typer.SSBQ41Ctx), tectorwise: vectorized(tw.SSBQ41Ctx), ref: oracle(queries.RefSSBQ41)},
}

// kernel returns the query's hand-written kernel for eng, or nil.
func (q *query) kernel(eng string) kernel {
	switch eng {
	case engine.Typer:
		return q.typer
	case engine.Tectorwise:
		return q.tectorwise
	}
	return nil
}

// find returns the named query of dataset, or nil.
func find(dataset, name string) *query {
	for i := range table {
		if table[i].dataset == dataset && table[i].name == name {
			return &table[i]
		}
	}
	return nil
}

// Queries lists the named queries of a dataset ("tpch", "ssb") in
// canonical order.
func Queries(dataset string) []string {
	var names []string
	for _, q := range table {
		if q.dataset == dataset {
			names = append(names, q.name)
		}
	}
	return names
}

// Reference computes the named query with its naive single-threaded
// oracle.
func Reference(db *storage.Database, name string) (any, error) {
	q := find(db.Name, name)
	if q == nil {
		return nil, fmt.Errorf("registry: unknown query %q on %s (known: %s)",
			name, db.Name, strings.Join(Queries(db.Name), ", "))
	}
	return q.ref(db), nil
}

// Run executes nameOrSQL on the named engine with the given workers (0 =
// GOMAXPROCS) and vector size (0 = default). An SQL text, or a name the
// engine has no kernel for, runs through logical.Prepare + engine.Run
// and returns a *logical.Result; a name with a kernel returns that
// kernel's typed result. A canceled ctx returns ctx.Err().
func Run(ctx context.Context, db *storage.Database, eng, nameOrSQL string, workers, vec int) (any, error) {
	if !slices.Contains(engine.Names(), eng) {
		return nil, fmt.Errorf("registry: unknown engine %q (%s)", eng, strings.Join(engine.Names(), " | "))
	}
	text := nameOrSQL
	if !sql.IsQuery(nameOrSQL) {
		q := find(db.Name, nameOrSQL)
		if q == nil {
			return nil, fmt.Errorf("registry: unknown query %q for %s on %s (known: %s)",
				nameOrSQL, eng, db.Name, strings.Join(Queries(db.Name), ", "))
		}
		if k := q.kernel(eng); k != nil {
			res := k(ctx, db, workers, vec)
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return res, nil
		}
		var ok bool
		if text, ok = logical.SQLText(db.Name, q.name); !ok {
			var on []string
			for _, e := range engine.Names() {
				if q.kernel(e) != nil {
					on = append(on, e)
				}
			}
			return nil, fmt.Errorf("registry: %s query %s has no SQL text and no %s kernel; it runs on %s",
				db.Name, q.name, eng, strings.Join(on, ", "))
		}
	}
	pl, err := logical.Prepare(db, text)
	if err != nil {
		return nil, err
	}
	out, err := engine.Run(ctx, eng, pl, engine.Options{Workers: workers, VecSize: vec})
	if err != nil {
		return nil, err
	}
	return out.Result, nil
}
