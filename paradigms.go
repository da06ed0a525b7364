// Package paradigms is a reproduction of "Everything You Always Wanted to
// Know About Compiled and Vectorized Queries But Were Afraid to Ask"
// (Kersten, Leis, Kemper, Neumann, Pavlo, Boncz — VLDB 2018).
//
// It provides two complete in-memory OLAP query engines built on shared
// data structures so that the only difference between them is the query
// execution paradigm:
//
//   - Typer — data-centric "compiled" execution: fused tuple-at-a-time
//     pipeline loops, hand-written (internal/typer) or lowered from SQL
//     (internal/compiled).
//   - Tectorwise — vectorized execution: vector-at-a-time interpretation
//     over type-specialized primitives (internal/tw), assembled into
//     operator trees (internal/plan) by hand or lowered from SQL
//     (internal/logical).
//
// This package is the public facade: dataset generation, query
// execution with cancellation (RunContext) over the table of named
// queries (internal/registry) — a hand-written kernel where one still
// beats the shared SQL driver, the query's canonical SQL text through
// that driver everywhere else — validation against the reference
// oracles, and the concurrent query service (NewService,
// internal/server). The benchmark harness (internal/bench, cmd/repro)
// regenerates every table and figure of the paper's evaluation; see
// DESIGN.md and EXPERIMENTS.md.
package paradigms

import (
	"context"

	"paradigms/internal/engine"
	"paradigms/internal/exchange"
	"paradigms/internal/queries"
	"paradigms/internal/registry"
	"paradigms/internal/ssb"
	"paradigms/internal/storage"
	"paradigms/internal/tpch"
)

// Engine selects a query execution paradigm.
type Engine string

// The two engines under study, plus the per-pipeline hybrid of the
// two (SQL only — ad-hoc texts and every named query with a canonical
// SQL text: each pipeline of a query runs on whichever paradigm suits
// it, exchanging data through the shared materialization boundaries —
// internal/hybrid).
const (
	Typer      Engine = engine.Typer
	Tectorwise Engine = engine.Tectorwise
	Hybrid     Engine = engine.Hybrid
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

// Queries lists the named queries of a database generated by
// GenerateTPCH ("Q1", "Q6", "Q3", "Q9", "Q18", "Q5") or GenerateSSB
// ("Q1.1", "Q2.1", "Q3.1", "Q4.1").
func Queries(db *DB) []string {
	return registry.Queries(db.Name)
}

// Run executes a named query or an SQL text on the given engine; see
// RunContext.
func Run(db *DB, engine Engine, query string, opt Options) (any, error) {
	return RunContext(context.Background(), db, engine, query, opt)
}

// RunContext is Run with cancellation: the context is threaded down to
// every morsel dispatcher of the query (exec.NewDispatcherCtx), so after
// ctx is done all workers drain within one morsel and RunContext
// reports ctx.Err().
//
// query is either a named query ("Q6") or an ad-hoc SQL text
// ("select ..."). SQL is parsed, bound and optimized against db's
// catalog (logical.Prepare) and runs through the one engine dispatch
// (internal/engine) — the vectorized lowering on Tectorwise, the
// compiled fused-pipeline lowering on Typer, the per-pipeline mix on
// Hybrid — returning a *logical.Result with the same rows on every
// engine. A name runs its hand-written kernel where internal/registry
// lists one for the engine (Q1, Q9, Q18, Q3.1 and Q4.1 on Typer and
// Tectorwise, Q5 and Q2.1 on Tectorwise only), returning the typed
// result (queries.Q1Result, …); otherwise its canonical SQL text runs
// as above, as Q5 and Q2.1 do on Typer. Q1, Q9, Q3.1 and
// Q4.1 have no SQL text, so Hybrid does not run them. Unknown names or
// engines return an error.
func RunContext(ctx context.Context, db *DB, eng Engine, query string, opt Options) (any, error) {
	return registry.Run(ctx, db, string(eng), query, opt.Workers, opt.VectorSize)
}

// NewCluster range-partitions db into n in-process shards behind
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
// oracle implementation (internal/queries, independent of every engine).
func Reference(db *DB, query string) (any, error) {
	return registry.Reference(db, query)
}

// ScannedTuples returns the total input cardinality of a query — the
// normalization constant the paper uses for all per-tuple counters
// (§3.4).
func ScannedTuples(db *DB, query string) int64 {
	return db.TotalTuples(queries.ScannedTables[query]...)
}
