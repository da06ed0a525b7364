// Package paradigms is a reproduction of "Everything You Always Wanted to
// Know About Compiled and Vectorized Queries But Were Afraid to Ask"
// (Kersten, Leis, Kemper, Neumann, Pavlo, Boncz — VLDB 2018).
//
// It provides two complete in-memory OLAP query engines built on shared
// data structures so that the only difference between them is the query
// execution paradigm:
//
//   - Typer — data-centric "compiled" execution: fused tuple-at-a-time
//     pipeline loops (internal/typer).
//   - Tectorwise — vectorized execution: vector-at-a-time interpretation
//     over type-specialized primitives (internal/tw), with most queries
//     assembled as declarative operator plans (internal/plan).
//
// This package is the public facade: dataset generation, engine-agnostic
// query execution (with cancellation, RunContext) dispatched through the
// query registry (internal/registry), cross-engine validation, and the
// concurrent query service (NewService, internal/server). The benchmark
// harness (internal/bench, cmd/repro) regenerates every table and figure
// of the paper's evaluation; see DESIGN.md and EXPERIMENTS.md.
package paradigms

import (
	"context"
	"fmt"
	"strings"

	"paradigms/internal/engine"
	"paradigms/internal/exchange"
	"paradigms/internal/logical"
	"paradigms/internal/queries"
	"paradigms/internal/registry"
	"paradigms/internal/sql"
	"paradigms/internal/ssb"
	"paradigms/internal/storage"
	"paradigms/internal/tpch"

	// The engines register their named queries with the registry from
	// init; the facade only dispatches, so the imports are for side
	// effects.
	_ "paradigms/internal/plan"
	_ "paradigms/internal/tw"
	_ "paradigms/internal/typer"
)

// Engine selects a query execution paradigm.
type Engine string

// The two engines under study, plus the per-pipeline hybrid of the
// two (ad-hoc SQL only: each pipeline of a query runs on whichever
// paradigm suits it, exchanging data through the shared
// materialization boundaries — internal/hybrid).
const (
	Typer      Engine = "typer"
	Tectorwise Engine = "tectorwise"
	Hybrid     Engine = "hybrid"
)

// DB is a generated benchmark database (TPC-H or SSB).
type DB = storage.Database

// Options configures query execution.
type Options struct {
	// Workers is the number of worker threads (0 = GOMAXPROCS), §6.
	Workers int
	// VectorSize is Tectorwise's tuples-per-vector (0 = 1000, §4.3);
	// ignored by Typer.
	VectorSize int
}

// GenerateTPCH builds a TPC-H instance at the given scale factor.
func GenerateTPCH(scaleFactor float64, workers int) *DB {
	return tpch.Generate(scaleFactor, workers)
}

// GenerateSSB builds a Star Schema Benchmark instance.
func GenerateSSB(scaleFactor float64, workers int) *DB {
	return ssb.Generate(scaleFactor, workers)
}

// Queries lists the supported query names for a database generated by
// GenerateTPCH ("Q1", "Q6", "Q3", "Q9", "Q18", "Q5") or GenerateSSB
// ("Q1.1", "Q2.1", "Q3.1", "Q4.1"), straight from the query registry.
func Queries(db *DB) []string {
	return registry.QueryNames(db.Name)
}

// Run executes the named query on the given engine and returns its typed
// result (queries.Q1Result, queries.Q6Result, …). Unknown query names or
// engines return an error.
func Run(db *DB, engine Engine, query string, opt Options) (any, error) {
	return RunContext(context.Background(), db, engine, query, opt)
}

// RunContext is Run with cancellation: the context is threaded down to
// every morsel dispatcher of the query (exec.NewDispatcherCtx), so after
// ctx is done all workers drain within one morsel. A canceled query still
// returns a (partial, meaningless) result value; RunContext discards it
// and reports ctx.Err() instead.
//
// query is either a registered query name ("Q6") or an ad-hoc SQL text
// ("select ..."): SQL is parsed, bound, and optimized against db's
// catalog (logical.Prepare) and the plan runs through the one engine
// dispatch (internal/engine) — the vectorized lowering on Tectorwise,
// the compiled fused-pipeline lowering on Typer, the per-pipeline mix
// on Hybrid — returning a *logical.Result with the same row multiset
// on every engine.
func RunContext(ctx context.Context, db *DB, eng Engine, query string, opt Options) (any, error) {
	if sql.IsQuery(query) {
		pl, err := logical.Prepare(db, query)
		if err != nil {
			return nil, err
		}
		out, err := engine.Run(ctx, string(eng), pl, engine.Options{Workers: opt.Workers, VecSize: opt.VectorSize})
		if err != nil {
			return nil, err
		}
		return out.Result, nil
	}
	if string(eng) == registry.Reference {
		// The oracles are registered under a pseudo-engine for the
		// Reference lookup; they are single-threaded and uncancelable,
		// so they are not runnable through the engine API.
		return nil, fmt.Errorf("paradigms: unknown engine %q", eng)
	}
	run, ok := registry.Lookup(string(eng), db.Name, query)
	if !ok {
		if !registry.HasEngine(string(eng)) {
			return nil, fmt.Errorf("paradigms: unknown engine %q", eng)
		}
		return nil, fmt.Errorf("paradigms: unknown query %q for engine %s on %s (registered: %s)",
			query, eng, db.Name, strings.Join(registry.Queries(string(eng), db.Name), ", "))
	}
	res := run(ctx, db, registry.Options{Workers: opt.Workers, VectorSize: opt.VectorSize})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

// NewCluster hash-partitions db into n in-process shards behind
// scatter/gather exchange operators (internal/exchange): each shard
// holds a catalog slice of the fact tables (dimensions are replicated
// by pointer), plans the SQL against its own slice, and executes up to
// the exchange boundary; the coordinator merges the partial aggregates
// through the engines' shared finalization tail. Distributable ad-hoc
// SQL fans out via Cluster.Run; plans the distribute rewrite rejects
// fall back to single-process execution on the full database. n=1
// shares the base database with the single shard and is bit-identical
// to single-process execution.
func NewCluster(db *DB, n int) (*exchange.Cluster, error) {
	return exchange.New(db, n)
}

// Reference computes the named query with the naive single-threaded
// oracle implementation (independent of both engines); the oracles live
// in the registry under the pseudo-engine "reference".
func Reference(db *DB, query string) (any, error) {
	run, ok := registry.Lookup(registry.Reference, db.Name, query)
	if !ok {
		return nil, fmt.Errorf("paradigms: unknown query %q for %s (registered: %s)",
			query, db.Name, strings.Join(registry.Queries(registry.Reference, db.Name), ", "))
	}
	return run(context.Background(), db, registry.Options{}), nil
}

// ScannedTuples returns the total input cardinality of a query — the
// normalization constant the paper uses for all per-tuple counters
// (§3.4).
func ScannedTuples(db *DB, query string) int64 {
	return db.TotalTuples(queries.ScannedTables[query]...)
}
