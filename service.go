package paradigms

import (
	"context"
	"fmt"
	"time"

	"paradigms/internal/catalog"
	"paradigms/internal/engine"
	"paradigms/internal/exchange"
	"paradigms/internal/feedback"
	"paradigms/internal/logical"
	"paradigms/internal/obs"
	"paradigms/internal/prepcache"
	"paradigms/internal/server"
	"paradigms/internal/sql"
)

// ServiceOptions configures NewService. The zero value picks the
// server package's defaults.
type ServiceOptions struct {
	// WorkerBudget, MaxConcurrent, MaxQueued configure admission control;
	// see server.Config.
	WorkerBudget  int
	MaxConcurrent int
	MaxQueued     int
	// VectorSize is Tectorwise's tuples-per-vector (0 = default).
	VectorSize int
	// PlanCacheSize bounds the prepared-statement plan cache (0 =
	// prepcache.DefaultCapacity). Statements evicted under pressure
	// simply re-prepare on their next Prepare call.
	PlanCacheSize int
	// MaxQueuedPerTenant, MaxPerTenant, TenantCaps, and TenantWeights
	// configure the per-tenant scheduler; see server.Config.
	MaxQueuedPerTenant int
	MaxPerTenant       int
	TenantCaps         map[string]int
	TenantWeights      map[string]int
	// StreamChunk is the row-batch granularity of streaming submissions
	// (0 = logical.DefaultStreamChunk).
	StreamChunk int
	// YieldPause and MorselSize tune the morsel-level fairness throttle;
	// see server.Config.
	YieldPause time.Duration
	MorselSize int
	// Metrics, if non-nil, receives per-query and per-pipeline latency
	// observations from every execution (rendered by the proto server's
	// /metricsz). QueryLog, if non-nil, receives one structured NDJSON
	// record per finished query (cmd/serve -qlog). Setting either
	// instruments every execution with a telemetry collector; leaving
	// both nil keeps executions collector-free (EXPLAIN ANALYZE
	// submissions still instrument themselves via Req.Collector).
	Metrics  *obs.Metrics
	QueryLog *obs.QueryLog
	// Prewarm, if non-empty, names a query-log NDJSON file (the format
	// QueryLog writes) to mine at startup: the heavy-hitter SQL
	// templates found there are prepared into the plan cache before the
	// service takes traffic, planned with the cardinality hints learned
	// from the logged per-pipeline telemetry — so a restarted server's
	// first queries hit warm, feedback-informed plans (cmd/serve
	// -prewarm).
	Prewarm string
	// NoFeedback disables the cardinality-feedback loop on prepared
	// statements. By default every prepared statement records its
	// observed per-pipeline cardinalities and re-plans itself when they
	// drift a sustained 4x from the optimizer's estimates.
	NoFeedback bool
	// Shards, when > 1, hash-partitions each loaded database into that
	// many in-process shards (internal/exchange) and routes
	// distributable ad-hoc SQL on the typer and tectorwise engines
	// through scatter/gather exchanges — one SQL text fans out across
	// the shards and the partial aggregates merge on the coordinator.
	// Plans the distribute rewrite rejects, registered query names,
	// prepared statements and streaming submissions keep running
	// single-process on the full data. So does the hybrid engine, by
	// this service's choice, not because it cannot run partial: the
	// repo benchmark's sharded_materialized workload uses hybrid
	// requests as its single-process comparator.
	Shards int
}

// NewService builds a concurrent query service over the given databases.
// Either database may be nil. The service speaks SQL only: texts route
// by their FROM tables — the first loaded database whose catalog has
// them all wins (TPC-H, then SSB) — and anything that is not a select
// statement, a registered query name included, is rejected (names run
// through Run).
func NewService(tpchDB, ssbDB *DB, opt ServiceOptions) *server.Service {
	route := func(query string) (*DB, error) {
		if !sql.IsQuery(query) {
			return nil, fmt.Errorf("paradigms: the query service runs SQL select statements only (got %q); registered query names run through paradigms.Run", query)
		}
		return logical.RouteByTables(query, tpchDB, ssbDB)
	}

	// Sharded execution: each loaded database gets its own cluster of
	// catalog slices; the Exec hook below fans distributable ad-hoc SQL
	// out through it.
	clusters := make(map[*DB]*exchange.Cluster)
	if opt.Shards > 1 {
		for _, db := range []*DB{tpchDB, ssbDB} {
			if db == nil {
				continue
			}
			if cl, err := exchange.New(db, opt.Shards); err == nil {
				clusters[db] = cl
			}
		}
	}

	cache := prepcache.New(opt.PlanCacheSize)

	// prepare is the one path onto the plan cache (Prep below and the
	// startup pre-warm): fetch or build the statement, then arm its
	// cardinality-feedback loop so sustained estimate drift re-plans it
	// with observed selectivities.
	fbStore := feedback.NewStore()
	prepare := func(query string, hints logical.CardHints) (*prepcache.Statement, error) {
		db, err := route(query)
		if err != nil {
			return nil, err
		}
		cat := catalog.For(db)
		st, _, err := cache.GetOrPrepare(cat, query, func() (*logical.Plan, error) {
			return logical.PrepareHints(db, query, hints)
		})
		if err != nil {
			return nil, err
		}
		if !opt.NoFeedback {
			st.EnableFeedback(fbStore, cat.Version, func(h logical.CardHints) (*logical.Plan, error) {
				return logical.PrepareHints(db, query, h)
			})
		}
		return st, nil
	}

	if opt.Prewarm != "" {
		// Best-effort: a missing or torn log must not stop the server.
		if tmpls, err := feedback.MineLog(opt.Prewarm, 0); err == nil {
			for _, t := range tmpls {
				prepare(t.SQL, t.Hints()) // rejects what an older log holds of query names
			}
		}
	}

	cfg := server.Config{
		WorkerBudget:       opt.WorkerBudget,
		MaxConcurrent:      opt.MaxConcurrent,
		MaxQueued:          opt.MaxQueued,
		MaxQueuedPerTenant: opt.MaxQueuedPerTenant,
		MaxPerTenant:       opt.MaxPerTenant,
		TenantCaps:         opt.TenantCaps,
		TenantWeights:      opt.TenantWeights,
		YieldPause:         opt.YieldPause,
		MorselSize:         opt.MorselSize,
		Exec: func(ctx context.Context, engine, query string, workers int) (any, error) {
			db, err := route(query)
			if err != nil {
				return nil, err
			}
			if cl := clusters[db]; cl != nil &&
				(engine == string(Typer) || engine == string(Tectorwise)) {
				return cl.Run(ctx, exchange.Request{
					SQL: query, Engine: engine,
					Workers: workers, VecSize: opt.VectorSize,
				})
			}
			return RunContext(ctx, db, Engine(engine), query,
				Options{Workers: workers, VectorSize: opt.VectorSize})
		},
		// Prepared statements: Prepare routes the SQL text to its
		// database and fetches (or builds) the optimized parameterized
		// plan from the LRU cache — a hit skips parse, bind, and plan
		// entirely. Execution binds one argument set into a
		// copy-on-write clone and runs it on the requested backend;
		// engine "auto" resolves through the statement's adaptive
		// router, which learns each backend's latency per statement and
		// exploits the paper's finding that neither paradigm dominates.
		Prep: func(query string) (any, error) {
			st, err := prepare(query, nil)
			if err != nil {
				return nil, err
			}
			return st, nil
		},
		ExecPrep: func(ctx context.Context, engine string, stmt any, args []string, workers int) (any, string, error) {
			st := stmt.(*prepcache.Statement)
			vals, err := st.BindTexts(args)
			if err != nil {
				return nil, engine, err
			}
			res, used, err := st.Execute(ctx, engine, vals, workers, opt.VectorSize)
			if err != nil {
				return nil, used, err
			}
			return res, used, nil
		},
		// Streaming execution: result batches flush to the submission's
		// sink as each morsel-merge completes instead of materializing
		// (logical.RowSink — see internal/logical/stream.go for when
		// streaming is truly incremental). The network front-end
		// (internal/proto) is the sink's main producer.
		ExecStream: func(ctx context.Context, eng, query string, workers int, sink any) (string, error) {
			rs, ok := sink.(logical.RowSink)
			if !ok {
				return eng, fmt.Errorf("paradigms: stream sink must implement logical.RowSink (got %T)", sink)
			}
			db, err := route(query)
			if err != nil {
				return eng, err
			}
			pl, err := logical.Prepare(db, query)
			if err != nil {
				return eng, err
			}
			// The end frame reports out.Used — for hybrid the per-pipeline
			// assignment ("hybrid[t,v]"), exactly like the prepared and
			// materializing paths.
			out, err := engine.Run(ctx, eng, pl, engine.Options{
				Workers: workers, VecSize: opt.VectorSize, Sink: rs, Chunk: opt.StreamChunk,
			})
			return out.Used, err
		},
		ExecPrepStream: func(ctx context.Context, engine string, stmt any, args []string, workers int, sink any) (string, error) {
			rs, ok := sink.(logical.RowSink)
			if !ok {
				return engine, fmt.Errorf("paradigms: stream sink must implement logical.RowSink (got %T)", sink)
			}
			st := stmt.(*prepcache.Statement)
			vals, err := st.BindTexts(args)
			if err != nil {
				return engine, err
			}
			return st.ExecuteStream(ctx, engine, vals, workers, opt.VectorSize, opt.StreamChunk, rs)
		},
		PlanCacheStats: func() (hits, misses, evictions uint64) {
			hits, misses, evictions, _ = cache.Stats()
			return hits, misses, evictions
		},
		// Per-engine stats attribution counts hybrid executions under one
		// "hybrid" key regardless of their per-pipeline assignment
		// decoration ("hybrid[t,v]" vs "hybrid[t,t]").
		EngineKey: prepcache.BaseEngine,
	}

	if opt.Metrics != nil || opt.QueryLog != nil {
		cfg.ObsBegin = obs.NewCollector
		cfg.ObsEnd = func(col *obs.Collector, info server.QueryInfo) {
			pipes := col.Pipes()
			if opt.Metrics != nil && info.Err == nil {
				opt.Metrics.ObserveQuery(prepcache.BaseEngine(info.Used), info.Latency.Seconds())
				opt.Metrics.ObservePipes(pipes)
			}
			if opt.QueryLog == nil {
				return
			}
			rec := obs.QueryRecord{
				Time:      time.Now().UTC().Format(time.RFC3339Nano),
				Tenant:    info.Tenant,
				Engine:    info.Engine,
				Used:      info.Used,
				SQL:       prepcache.Normalize(info.Query),
				Prepared:  info.Prepared,
				Streamed:  info.Streamed,
				PlanShape: obs.ShapeHash(pipes),
				LatencyMs: float64(info.Latency) / float64(time.Millisecond),
				Rows:      info.Rows,
				Pipes:     pipes,
			}
			if db, err := route(info.Query); err == nil {
				rec.CatalogVersion = catalog.For(db).Version
			}
			if res, ok := info.Result.(*logical.Result); ok {
				rec.Rows = int64(len(res.Rows))
			}
			if info.Err != nil {
				rec.Err = info.Err.Error()
			}
			opt.QueryLog.Write(&rec)
		}
	}

	return server.New(cfg)
}
