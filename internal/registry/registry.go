// Package registry is the engine-agnostic query catalog — an extension
// beyond the paper's fixed query set. Every executable query is one
// registration (engine × dataset × name → Runner) made from the engine
// package's init: internal/typer registers its fused pipelines,
// internal/tw its monolithic vectorized queries, internal/plan its
// declarative operator plans, and internal/queries the reference oracles
// (under the pseudo-engine Reference). The facade (paradigms.RunContext),
// the benchmark harness (internal/bench), and the query service workload
// drivers all dispatch through Lookup, so adding a query is one
// registration per engine — no per-caller switch to extend.
package registry

import (
	"context"
	"sort"
	"sync"

	"paradigms/internal/storage"
)

// Engine names. These are the spellings used throughout the repo (facade
// Engine constants, bench harness, serve flags). Reference is the
// pseudo-engine of the internal/queries correctness oracles.
const (
	Typer      = "typer"
	Tectorwise = "tectorwise"
	// Hybrid is the per-pipeline mixed-paradigm executor
	// (internal/hybrid): each pipeline of a query runs on whichever
	// backend — fused or vectorized — suits it, exchanging data through
	// the shared materialization boundaries.
	Hybrid    = "hybrid"
	Reference = "reference"
)

// Options carries the per-run execution knobs. VectorSize is only
// meaningful to vectorized runners; fused engines ignore it.
type Options struct {
	// Workers is the number of morsel workers (0 = GOMAXPROCS).
	Workers int
	// VectorSize is the tuples-per-vector of a vectorized runner (0 =
	// vector.DefaultSize).
	VectorSize int
}

// Runner executes one query on one database and returns its typed result
// (queries.Q1Result, …). Runners must honor ctx the way the engines do:
// once ctx is done, morsel dispatchers report exhaustion and the runner
// returns promptly with a partial result the caller discards.
type Runner func(ctx context.Context, db *storage.Database, opt Options) any

type key struct{ engine, dataset, name string }

var (
	mu      sync.RWMutex
	runners = map[key]Runner{}
	order   = map[string][]string{} // dataset → canonical query order
)

// Register adds a query runner for (engine, dataset, name). It panics on
// duplicate registration — two packages claiming the same query is a
// wiring bug, not a runtime condition.
func Register(engine, dataset, name string, run Runner) {
	if run == nil {
		panic("registry: nil runner for " + engine + "/" + dataset + "/" + name)
	}
	k := key{engine, dataset, name}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := runners[k]; dup {
		panic("registry: duplicate registration " + engine + "/" + dataset + "/" + name)
	}
	runners[k] = run
}

// Lookup returns the runner registered for (engine, dataset, name).
func Lookup(engine, dataset, name string) (Runner, bool) {
	mu.RLock()
	defer mu.RUnlock()
	r, ok := runners[key{engine, dataset, name}]
	return r, ok
}

// HasEngine reports whether any query is registered under engine — used
// to distinguish "unknown engine" from "unknown query" in errors.
func HasEngine(engine string) bool {
	mu.RLock()
	defer mu.RUnlock()
	for k := range runners {
		if k.engine == engine {
			return true
		}
	}
	return false
}

// SetOrder declares the canonical listing order of a dataset's queries
// (paper order). Names never registered are simply absent from listings;
// registered names missing from the order sort after it, alphabetically.
func SetOrder(dataset string, names []string) {
	mu.Lock()
	defer mu.Unlock()
	order[dataset] = append([]string(nil), names...)
}

// rank returns the canonical position of name, or a large sentinel.
// Caller holds mu (read or write).
func rank(dataset, name string) int {
	for i, n := range order[dataset] {
		if n == name {
			return i
		}
	}
	return 1 << 30
}

// sortCanonical orders names by (canonical rank, name).
func sortCanonical(dataset string, names []string) []string {
	sort.Slice(names, func(i, j int) bool {
		ri, rj := rank(dataset, names[i]), rank(dataset, names[j])
		if ri != rj {
			return ri < rj
		}
		return names[i] < names[j]
	})
	return names
}

// Queries lists the query names registered for (engine, dataset) in
// canonical order.
func Queries(engine, dataset string) []string {
	mu.RLock()
	defer mu.RUnlock()
	var names []string
	for k := range runners {
		if k.engine == engine && k.dataset == dataset {
			names = append(names, k.name)
		}
	}
	return sortCanonical(dataset, names)
}

// QueryNames lists every query name registered for dataset under any
// engine, in canonical order — the service-facing "what can I run here"
// list.
func QueryNames(dataset string) []string {
	mu.RLock()
	defer mu.RUnlock()
	seen := map[string]bool{}
	var names []string
	for k := range runners {
		if k.dataset == dataset && !seen[k.name] {
			seen[k.name] = true
			names = append(names, k.name)
		}
	}
	return sortCanonical(dataset, names)
}
