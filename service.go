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
	// Shards, when > 1, range-partitions each loaded database into that
	// many in-process shards (internal/exchange) and runs every request
	// on the typer and tectorwise engines — ad-hoc or prepared,
	// materialized or streamed — through scatter/gather exchanges: one
	// SQL text fans out across the shards and the partial aggregates
	// merge on the coordinator. Plans the distribute rewrite rejects run
	// single-process on the full data. So do the hybrid and auto
	// engines; executor.Run says why.
	Shards int
}

// NewService builds a concurrent query service over the given databases.
// Either database may be nil. The service speaks SQL only: texts route
// by their FROM tables — the first loaded database whose catalog has
// them all wins (TPC-H, then SSB) — and anything that is not a select
// statement, a registered query name included, is rejected (names run
// through Run).
func NewService(tpchDB, ssbDB *DB, opt ServiceOptions) *server.Service {
	x := &executor{
		dbs:      []*DB{tpchDB, ssbDB},
		clusters: make(map[*DB]*exchange.Cluster),
		cache:    prepcache.New(opt.PlanCacheSize),
		vecSize:  opt.VectorSize,
		chunk:    opt.StreamChunk,
	}
	if !opt.NoFeedback {
		x.feedback = feedback.NewStore()
	}
	if opt.Shards > 1 {
		for _, db := range x.dbs {
			if db == nil {
				continue
			}
			if cl, err := exchange.New(db, opt.Shards); err == nil {
				x.clusters[db] = cl
			}
		}
	}
	if opt.Prewarm != "" {
		// Best-effort: a missing or torn log must not stop the server,
		// and prepare rejects what an older log holds of query names.
		if tmpls, err := feedback.MineLog(opt.Prewarm, 0); err == nil {
			for _, t := range tmpls {
				x.prepare(t.SQL, t.Hints())
			}
		}
	}

	cfg := server.Config{
		Executor:           x,
		WorkerBudget:       opt.WorkerBudget,
		MaxConcurrent:      opt.MaxConcurrent,
		MaxQueued:          opt.MaxQueued,
		MaxQueuedPerTenant: opt.MaxQueuedPerTenant,
		MaxPerTenant:       opt.MaxPerTenant,
		TenantCaps:         opt.TenantCaps,
		TenantWeights:      opt.TenantWeights,
		YieldPause:         opt.YieldPause,
		MorselSize:         opt.MorselSize,
	}
	if opt.Metrics != nil || opt.QueryLog != nil {
		cfg.ObsBegin = obs.NewCollector
		cfg.ObsEnd = func(col *obs.Collector, info server.QueryInfo) {
			pipes := col.Pipes()
			if opt.Metrics != nil && info.Err == nil {
				opt.Metrics.ObserveQuery(engine.BaseName(info.Used), info.Latency.Seconds())
				opt.Metrics.ObservePipes(pipes)
			}
			if opt.QueryLog == nil {
				return
			}
			rec := obs.QueryRecord{
				Time:           time.Now().UTC().Format(time.RFC3339Nano),
				Tenant:         info.Tenant,
				Engine:         info.Engine,
				Used:           info.Used,
				SQL:            prepcache.Normalize(info.Query),
				CatalogVersion: info.CatalogVersion,
				Prepared:       info.Prepared,
				Streamed:       info.Streamed,
				PlanShape:      obs.ShapeHash(pipes),
				LatencyMs:      float64(info.Latency) / float64(time.Millisecond),
				QueueMs:        float64(info.QueueWait) / float64(time.Millisecond),
				Rows:           info.Rows,
				Pipes:          pipes,
			}
			if info.Err != nil {
				rec.Err = info.Err.Error()
			}
			opt.QueryLog.Write(&rec)
		}
	}
	return server.New(cfg)
}

// executor is the service's one server.Executor: every request form —
// ad-hoc or prepared, materialized or streamed — resolves its plan,
// binds, and runs here, and "shards or single-process" is decided once
// for all of them.
type executor struct {
	dbs      []*DB // routing order: TPC-H, then SSB; nil = not loaded
	clusters map[*DB]*exchange.Cluster
	cache    *prepcache.Cache
	feedback *feedback.Store // nil = no cardinality-feedback loop
	vecSize  int
	chunk    int
}

// Prepare implements server.Executor on the plan cache.
func (x *executor) Prepare(text string) (server.Stmt, error) {
	st, err := x.prepare(text, nil)
	if err != nil {
		return nil, err // not a nil *prepcache.Statement in a non-nil interface
	}
	return st, nil
}

// prepare is the one path onto the plan cache (Prepare and the startup
// pre-warm). A cached text costs no parse, routing included: each
// loaded catalog's key is probed in route order, and only a miss
// parses, routes by the FROM tables, plans, and arms the statement's
// cardinality-feedback loop so sustained estimate drift re-plans it
// with observed selectivities. Either way the cache counts one hit or
// one miss.
func (x *executor) prepare(text string, hints logical.CardHints) (*prepcache.Statement, error) {
	norm := prepcache.Normalize(text)
	for _, db := range x.dbs {
		if db == nil {
			continue
		}
		if st, ok := x.cache.Lookup(catalog.For(db).Version, norm); ok {
			return st, nil
		}
	}
	pl, err := x.plan(text, hints)
	if err != nil {
		return nil, err
	}
	cat := pl.Catalog()
	st, _, err := x.cache.GetOrPrepare(cat, norm, func() (*logical.Plan, error) { return pl, nil })
	if err != nil {
		return nil, err
	}
	if x.feedback != nil {
		db := cat.DB
		st.EnableFeedback(x.feedback, cat.Version, func(h logical.CardHints) (*logical.Plan, error) {
			return logical.PrepareHints(db, text, h)
		})
	}
	return st, nil
}

// plan is the front door: it turns away what is not a select statement
// and otherwise parses once, routes and plans.
func (x *executor) plan(text string, hints logical.CardHints) (*logical.Plan, error) {
	if !sql.IsQuery(text) {
		return nil, fmt.Errorf("paradigms: the query service runs SQL select statements only (got %q); registered query names run through paradigms.Run", text)
	}
	return logical.PrepareRouted(text, hints, x.dbs...)
}

// Run implements server.Executor. An ad-hoc job is a statement used
// once: planned here and never cached.
func (x *executor) Run(ctx context.Context, job server.Job) (server.Outcome, error) {
	out := server.Outcome{Used: job.Engine}
	st := job.Stmt
	if st == nil {
		pl, err := x.plan(job.Text, nil)
		if err != nil {
			return out, err
		}
		st = prepcache.NewStatement(job.Text, pl)
	}
	pl := st.Plan()
	cat := pl.Catalog()
	out.CatalogVersion = cat.Version
	args, err := pl.BindTexts(job.Args)
	if err != nil {
		return out, err
	}

	var res *logical.Result
	// The one shard decision, for every request form. Hybrid stays
	// local because the benchmark's sharded_materialized workload
	// declares it the single-process comparator; auto stays local for
	// the same reason, because it runs the hybrid.
	if cl := x.clusters[cat.DB]; cl != nil && (job.Engine == string(Typer) || job.Engine == string(Tectorwise)) {
		res, err = cl.Run(ctx, exchange.Request{
			SQL: job.Text, Args: args, Engine: job.Engine,
			Workers: job.Workers, VecSize: x.vecSize,
		})
		if err == nil {
			out.Rows = int64(len(res.Rows))
			if job.Sink != nil {
				// A result gathered from shards streams from here.
				err = res.Stream(ctx, job.Sink, x.chunk)
			}
		}
	} else {
		var ran engine.Output
		ran, err = st.Run(ctx, job.Engine, engine.Options{
			Args: args, Workers: job.Workers, VecSize: x.vecSize,
			Sink: job.Sink, Chunk: x.chunk,
		})
		res, out.Used, out.Rows = ran.Result, ran.Used, ran.Rows
	}
	if job.Sink == nil {
		out.Result = res
	}
	return out, err
}

// Counters implements server.Executor: the plan cache's counters and
// the exchange counters summed over the loaded databases' clusters.
func (x *executor) Counters() server.Counters {
	var c server.Counters
	c.PlanCacheHits, c.PlanCacheMisses, c.PlanCacheEvictions, _ = x.cache.Stats()
	for _, cl := range x.clusters {
		scattered, single, fallback := cl.Stats()
		c.ExchangeScattered += scattered
		c.ExchangeSingleShard += single
		c.ExchangeFallback += fallback
	}
	return c
}
