// Package exchange implements sharded, distributed in-process
// execution over the three SQL engines — an extension beyond the paper
// (ROADMAP item 1, DESIGN.md §15), and the distributed endgame the
// paper's Volcano-style engine comparison points at: one SQL text
// fans out across N range-partitioned shards
// through a scatter exchange, each shard plans and executes the whole
// pipeline tree over its catalog slice up to the exchange boundary
// (engine.Run with Options.Partial), and a gather
// exchange on the coordinator re-merges the partials through the
// engines' shared MergeGlobal/FinalizeRows machinery — so HAVING,
// ORDER BY, and LIMIT semantics cannot drift from single-process
// execution.
//
// A Shard is an interface so a shard can later become a network hop:
// Request is plain serializable data (SQL text, args, engine, budget),
// and a Partial is plain rows. The in-process Local shard is a
// goroutine pool (each partial run has its own morsel dispatchers over
// the slice).
package exchange

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"paradigms/internal/catalog"
	"paradigms/internal/engine"
	"paradigms/internal/logical"
	"paradigms/internal/prepcache"
	"paradigms/internal/storage"
)

// Request is one shard's share of a query — deliberately plain data
// (no plan pointers), so a Shard implementation could serialize it
// over a network hop.
type Request struct {
	SQL     string
	Args    []int64
	Engine  string // engine.Typer, engine.Tectorwise or engine.Hybrid ("" = tectorwise)
	Workers int    // per-shard worker budget (0 = GOMAXPROCS)
	VecSize int    // vectorized backend's vector size (0 = default)
}

// Shard executes one slice's share of queries.
type Shard interface {
	// Partial plans the SQL against the shard's catalog slice and runs
	// it up to the exchange boundary, returning the shard-local partial
	// state. A canceled context returns promptly; the caller discards
	// the partial.
	Partial(ctx context.Context, req Request) (*logical.Partial, error)
}

// planCacheCap bounds the plan cache of each shard and of the
// coordinator (plans re-prepare on their next request after eviction,
// like the service plan cache).
const planCacheCap = 512

// cachedPlan fetches or builds the optimized plan of the text against
// db. Each shard plans against its own slice's cardinalities, the
// coordinator against the full database; the slot layout the partials
// ship is determined by the SQL alone, so shards may pick different
// join orders and still merge.
func cachedPlan(cache *prepcache.Cache, db *storage.Database, text string) (*logical.Plan, error) {
	st, _, err := cache.GetOrPrepare(catalog.For(db), text, func() (*logical.Plan, error) {
		return logical.Prepare(db, text)
	})
	if err != nil {
		return nil, err
	}
	return st.Plan(), nil
}

// execute runs the request's share of a plan through the engine
// dispatch: up to the exchange boundary on a shard (partial), or to the
// final result on the coordinator's single-process fallback.
func execute(ctx context.Context, req Request, pl *logical.Plan, partial bool) (engine.Output, error) {
	name := req.Engine
	if name == "" {
		name = engine.Tectorwise
	}
	return engine.Run(ctx, name, pl, engine.Options{
		Args: req.Args, Workers: req.Workers, VecSize: req.VecSize, Partial: partial,
	})
}

// Local is the in-process Shard: a database slice and its plan cache,
// executing partials on this process's goroutine pool.
type Local struct {
	db    *storage.Database
	plans *prepcache.Cache
}

// NewLocal wraps a database slice as an in-process shard.
func NewLocal(db *storage.Database) *Local {
	return &Local{db: db, plans: prepcache.New(planCacheCap)}
}

// DB exposes the shard's slice (tests and EXPLAIN).
func (s *Local) DB() *storage.Database { return s.db }

// Partial implements Shard.
func (s *Local) Partial(ctx context.Context, req Request) (*logical.Partial, error) {
	pl, err := cachedPlan(s.plans, s.db, req.SQL)
	if err != nil {
		return nil, err
	}
	out, err := execute(ctx, req, pl, true)
	return out.Partial, err
}

// Cluster is the coordinator: the full database (for planning,
// validation, and the non-distributable fallback) plus its shards.
type Cluster struct {
	base   *storage.Database
	plans  *prepcache.Cache
	keys   map[string]string
	shards []Shard

	scattered atomic.Uint64
	single    atomic.Uint64
	fallback  atomic.Uint64
}

// New range-partitions the database into n in-process shards and
// returns the coordinator. n=1 shares the base database with the one
// shard, so results are bit-identical to single-process execution.
func New(db *storage.Database, n int) (*Cluster, error) {
	if db == nil {
		return nil, fmt.Errorf("exchange: nil database")
	}
	keys := PartitionKeys(db)
	dbs, err := Partition(db, n, keys)
	if err != nil {
		return nil, err
	}
	shards := make([]Shard, len(dbs))
	for i, d := range dbs {
		shards[i] = NewLocal(d)
	}
	return &Cluster{base: db, plans: prepcache.New(planCacheCap), keys: keys, shards: shards}, nil
}

// Shards returns the fan-out width.
func (c *Cluster) Shards() int { return len(c.shards) }

// Shard returns the i'th shard (tests).
func (c *Cluster) Shard(i int) Shard { return c.shards[i] }

// Stats reports how queries have routed so far: scattered across all
// shards, pinned to a single shard (replicated tables only), or fallen
// back to single-process execution (not distributable under the
// partitioning).
func (c *Cluster) Stats() (scattered, single, fallback uint64) {
	return c.scattered.Load(), c.single.Load(), c.fallback.Load()
}

// Explain renders the distributed plan of the SQL text (exchange
// operators wrapping the optimized plan), or describes the fallback.
func (c *Cluster) Explain(text string) (string, error) {
	pl, err := cachedPlan(c.plans, c.base, text)
	if err != nil {
		return "", err
	}
	dp, err := logical.Distribute(pl, c.keys)
	if err != nil {
		return fmt.Sprintf("single-process fallback (%v)\n%s", err, pl.Format()), nil
	}
	return dp.Format(len(c.shards)), nil
}

// Run executes one SQL text through the exchange: plan on the full
// catalog, validate distributability, scatter to the shards, gather
// and merge the partials, finalize. Plans the rewrite rejects run
// single-process on the full database — correctness over parallelism.
func (c *Cluster) Run(ctx context.Context, req Request) (*logical.Result, error) {
	pl, err := cachedPlan(c.plans, c.base, req.SQL)
	if err != nil {
		return nil, err
	}
	res, err := c.run(ctx, pl, req)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

func (c *Cluster) run(ctx context.Context, pl *logical.Plan, req Request) (*logical.Result, error) {
	dp, derr := logical.Distribute(pl, c.keys)
	if derr != nil {
		// Not distributable: single-process execution on the full
		// database, same engines, same contract.
		c.fallback.Add(1)
		out, err := execute(ctx, req, pl, false)
		return out.Result, err
	}
	targets := c.shards
	if dp.Mode == logical.DistSingle {
		// Replicated tables only: any one shard holds all the data;
		// running everywhere would duplicate every row.
		targets = c.shards[:1]
		c.single.Add(1)
	} else {
		c.scattered.Add(1)
	}
	req.Workers = perShardWorkers(req.Workers, len(targets))

	// Scatter: every shard runs concurrently; the first error cancels
	// the rest within one morsel.
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	parts := make([]*logical.Partial, len(targets))
	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	for i, sh := range targets {
		wg.Add(1)
		go func(i int, sh Shard) {
			defer wg.Done()
			parts[i], errs[i] = sh.Partial(sctx, req)
			if errs[i] != nil {
				cancel()
			}
		}(i, sh)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Gather: merge the shard partials through the shared finalization
	// tail. Parameterized texts bind on the coordinator too, so HAVING
	// and param-only conjuncts evaluate against the same binding the
	// shards ran.
	mpl, err := pl.BindArgs(req.Args)
	if err != nil {
		return nil, err
	}
	return mpl.MergePartials(parts)
}

// perShardWorkers splits the query's worker budget across the shards
// it scatters to, so a sharded execution uses the same total
// parallelism as a single-process one.
func perShardWorkers(w, n int) int {
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if per := w / n; per > 1 {
		return per
	}
	return 1
}
