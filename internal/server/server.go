// Package server layers inter-query scheduling on top of the morsel-driven
// intra-query framework of internal/exec. It is an extension beyond the
// paper (whose experiments are single-query, §6): the service runs many
// simultaneous queries against one global worker budget, which is the
// regime production engines actually live in. Admission control bounds
// how many queries execute at once; arrivals beyond the bound wait in
// per-tenant queues scheduled by deficit round robin, so one tenant
// flooding the service cannot starve another. Queue-depth bounds
// reject excess arrivals with a typed retry-after error, and a
// morsel-level fairness controller throttles tenants running over their
// fair worker share. Cancellation is first class: each query runs under
// its own context.Context, threaded down to every morsel dispatcher, so
// an abandoned query drains out of its scan loops within one morsel.
// See DESIGN.md §5 and §11 for the policy discussion.
//
// The package is engine agnostic by construction: every query is
// prepared and executed through one injected Executor (the facade's,
// wired by NewService), so Typer and Tectorwise are scheduled
// identically — the same property the paper engineered for the
// intra-query layer.
package server

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"paradigms/internal/catalog"
	"paradigms/internal/engine"
	"paradigms/internal/exec"
	"paradigms/internal/logical"
	"paradigms/internal/obs"
)

// Executor is everything the service asks of the engines: it owns the
// request from text to rows — routing, planning, binding, the choice
// between shards and single-process execution — and the service owns
// admission, scheduling, cancellation and accounting around it.
type Executor interface {
	// Prepare turns one SQL text into a statement Run takes back in
	// Job.Stmt. The facade serves it from the plan cache, so repeated
	// calls for one normalized text parse and plan at most once.
	Prepare(text string) (Stmt, error)
	// Run executes one job. It must honor ctx (return promptly once ctx
	// is done, reporting ctx.Err()) and run with at most job.Workers
	// workers. Outcome.Used is meaningful on error too.
	Run(ctx context.Context, job Job) (Outcome, error)
	// Counters reports the executor's own cumulative counters for Stats.
	Counters() Counters
}

// Stmt is a prepared statement: what Executor.Prepare hands out and
// what Executor.Run drives. The service only carries it; the protocol
// reads the placeholder signature.
type Stmt interface {
	NumParams() int
	ParamTypes() []catalog.Type
	// Plan is the statement's current optimized plan template.
	Plan() *logical.Plan
	// Run executes the template on the named engine ("auto" runs the
	// hybrid) with the bound arguments and mode in opt.
	Run(ctx context.Context, name string, opt engine.Options) (engine.Output, error)
}

// Job is one admitted query as the Executor sees it.
type Job struct {
	// Engine is the requested backend ("typer", "tectorwise", "hybrid",
	// or "auto" for prepared executions).
	Engine string
	// Text is the SQL text; for a prepared execution, the text the
	// statement was prepared from.
	Text string
	// Stmt, if non-nil, makes this a prepared execution: no parse or
	// plan, Args bound to the statement's placeholders.
	Stmt Stmt
	Args []string
	// Workers is the job's share of the worker budget.
	Workers int
	// Sink, if non-nil, receives the result as a stream instead of
	// Outcome.Result.
	Sink logical.RowSink
}

// Outcome is what a job produced.
type Outcome struct {
	// Result is the materialized result (nil when the job streamed).
	Result *logical.Result
	// Used is the engine that ran — for hybrid, decorated with the
	// pipeline assignment ("hybrid[t,v]").
	Used string
	// Rows is the result cardinality, streamed or materialized.
	Rows int64
	// CatalogVersion identifies the schema instance the job ran against
	// (0 if it never resolved one).
	CatalogVersion uint64
}

// Counters are the executor's cumulative counters, surfaced verbatim in
// Stats: the plan cache's (a hit is a Prepare that skipped parse, bind
// and plan entirely) and the exchange's (how jobs on a sharded service
// routed: scattered across all shards, pinned to one shard because they
// read replicated tables only, or fallen back to single-process
// execution because the plan is not distributable).
type Counters struct {
	PlanCacheHits, PlanCacheMisses, PlanCacheEvictions       uint64
	ExchangeScattered, ExchangeSingleShard, ExchangeFallback uint64
}

// Service errors.
var (
	// ErrOverloaded is the sentinel of queue-depth backpressure; actual
	// rejections are *OverloadError values carrying the tenant and a
	// retry-after estimate, and match this via errors.Is.
	ErrOverloaded = errors.New("server: admission queue full")
	// ErrClosed is returned by Submit after Close.
	ErrClosed = errors.New("server: service closed")
)

// Config configures a Service. The zero value of every optional field
// selects a sensible default.
type Config struct {
	// Executor prepares and runs the queries. Required.
	Executor Executor
	// WorkerBudget is the total number of morsel workers shared by all
	// running queries (0 = GOMAXPROCS). An admitted query gets an equal
	// split of the budget, capped by what is not already granted (see
	// Service.share): a lone query uses the whole machine, a saturated
	// service degrades to one worker per query and relies on inter-query
	// parallelism instead.
	WorkerBudget int
	// MaxConcurrent bounds the number of queries executing at once
	// (0 = max(4, WorkerBudget)). Arrivals beyond it queue per tenant.
	MaxConcurrent int
	// MaxQueued bounds the total queued count across all tenants (0 =
	// unbounded). When full, submissions fail fast with *OverloadError.
	MaxQueued int
	// MaxQueuedPerTenant bounds each tenant's queue (0 = unbounded).
	MaxQueuedPerTenant int
	// MaxPerTenant bounds how many queries of one tenant execute at
	// once (0 = no bound beyond MaxConcurrent). A capped tenant is
	// stepped over by the scheduler without losing its place.
	MaxPerTenant int
	// TenantCaps overrides MaxPerTenant per tenant name — the quota
	// knob that keeps one flooding tenant from occupying every slot
	// with long queries while leaving other tenants uncapped.
	TenantCaps map[string]int
	// TenantWeights sets DRR weights (admissions per round) per tenant
	// name; unlisted tenants weigh 1.
	TenantWeights map[string]int
	// YieldPause is the bounded per-morsel pause imposed on queries of
	// an over-share tenant while other tenants have work (0 = 500µs).
	YieldPause time.Duration
	// MorselSize overrides the engines' default scan morsel size for
	// queries run by this service (0 = exec.DefaultMorselSize). Morsel
	// claims are where yield pauses and cancellation take effect, so a
	// smaller quantum makes the fairness throttle proportionally more
	// responsive — at ~1 atomic add per morsel of overhead.
	MorselSize int
	// Sleep, if non-nil, replaces time.Sleep for the yield pause —
	// injectable for deterministic fairness tests.
	Sleep func(time.Duration)
	// ObsBegin, if set, creates the telemetry collector attached to each
	// execution's context (nil return = uninstrumented). A collector
	// already carried by the request (Req.Collector — e.g. an EXPLAIN
	// ANALYZE submission) takes precedence.
	ObsBegin func() *obs.Collector
	// ObsEnd, if set, receives every finished query together with its
	// collector (nil when uninstrumented) — the facade wires the
	// structured query log and metrics here. Called outside the
	// service's lock, after stats are recorded.
	ObsEnd func(col *obs.Collector, info QueryInfo)
}

// QueryInfo describes one finished query for the ObsEnd hook.
type QueryInfo struct {
	// Tenant the query billed to; Engine as submitted (possibly
	// "auto"); Used as executed (hybrid-decorated; equals Engine when
	// the query never ran).
	Tenant string
	Engine string
	Used   string
	// Query is the submitted text (a prepared submission's statement
	// text).
	Query    string
	Prepared bool
	Streamed bool
	// Latency is submit-to-finish, of which QueueWait was spent waiting
	// for admission; Rows the result cardinality (-1 for a failed
	// query); CatalogVersion the schema instance it ran against.
	Latency        time.Duration
	QueueWait      time.Duration
	Rows           int64
	CatalogVersion uint64
	// Err is the failure (nil when served).
	Err error
}

// waiter is one queued admission request.
type waiter struct {
	grant    chan int // receives the worker share when admitted
	canceled bool     // set if the waiter gave up; skip on grant
	t        *tenant  // owning tenant (for queue removal and caps)
	share    int      // worker share granted (set by dispatch)
}

// Req describes one submission: which tenant it bills to, which engine
// runs it, what to run (ad-hoc text or prepared statement + args), and
// optionally where to stream result batches.
type Req struct {
	// Tenant attributes the query for scheduling and stats
	// ("" = DefaultTenant).
	Tenant string
	// Engine is the execution backend ("typer", "tectorwise", or
	// "auto" for prepared executions).
	Engine string
	// Query is the ad-hoc SQL text (ignored for prepared submissions,
	// which carry their text).
	Query string
	// Prep, if non-nil, makes this a prepared execution with Args.
	Prep *Prepared
	Args []string
	// Sink, if non-nil, streams result batches to it instead of
	// materializing the result.
	Sink logical.RowSink
	// Collector, if non-nil, instruments the execution with per-pipeline
	// telemetry readable by the caller after Done (EXPLAIN ANALYZE).
	// It overrides Config.ObsBegin for this submission.
	Collector *obs.Collector
}

// Service is a concurrent query execution service: bounded concurrency,
// per-tenant deficit-round-robin admission, queue-depth backpressure,
// per-query cancellation, streaming execution, aggregate and per-tenant
// stats. All methods are safe for concurrent use.
type Service struct {
	cfg        Config
	yieldPause time.Duration
	sleep      func(time.Duration)

	mu      sync.Mutex
	running int // queries currently executing
	granted int // morsel workers granted to running queries
	nQueued int // waiters across all queues
	tenants map[string]*tenant
	ring    []*tenant // DRR active ring (tenants with queued work)
	ringIdx int
	closed  bool
	nextID  uint64
	st      statsAcc

	execEWMA time.Duration // service-wide smoothed execution time

	wg      sync.WaitGroup // in-flight queries, for Close
	started time.Time
	morsels atomic.Int64 // morsels claimed by this service's queries
}

// New creates a Service from cfg; it panics if cfg.Executor is nil.
func New(cfg Config) *Service {
	if cfg.Executor == nil {
		panic("server: Config.Executor is required")
	}
	if cfg.WorkerBudget <= 0 {
		cfg.WorkerBudget = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = max(4, cfg.WorkerBudget)
	}
	s := &Service{
		cfg:        cfg,
		yieldPause: cfg.YieldPause,
		sleep:      cfg.Sleep,
		tenants:    make(map[string]*tenant),
		started:    time.Now(),
	}
	if s.yieldPause <= 0 {
		s.yieldPause = defaultYieldPause
	}
	if s.sleep == nil {
		s.sleep = time.Sleep
	}
	return s
}

// Submit enqueues a query for execution under the default tenant and
// returns immediately with its handle. Admission is decided by the
// scheduler (FIFO within a tenant, deficit round robin across tenants).
// ctx governs the whole lifetime of the query: canceling it while
// queued abandons the admission slot, canceling it while running drains
// the morsel workers. Submit itself only fails fast: ErrClosed after
// Close, *OverloadError when a queue bound is hit.
func (s *Service) Submit(ctx context.Context, engine, query string) (*Handle, error) {
	return s.SubmitReq(ctx, Req{Engine: engine, Query: query})
}

// Prepare turns a SQL text into a prepared statement via the Executor
// (the facade's plan cache): parse, bind, and optimization happen at
// most once per distinct normalized text, and the returned handle
// executes with per-call argument bindings through
// SubmitPrepared/DoPrepared.
func (s *Service) Prepare(query string) (*Prepared, error) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	stmt, err := s.cfg.Executor.Prepare(query)
	if err != nil {
		return nil, err
	}
	return &Prepared{stmt: stmt, query: query}, nil
}

// SubmitPrepared enqueues one execution of a prepared statement with
// the given argument texts (one per `?` placeholder) under the default
// tenant. Admission, cancellation, and the worker-share grant are
// exactly Submit's; only the execution path differs — no parse or
// plan, and an "auto" engine runs the hybrid (Handle.EngineUsed
// reports its per-pipeline assignment after Done).
func (s *Service) SubmitPrepared(ctx context.Context, engine string, p *Prepared, args ...string) (*Handle, error) {
	return s.SubmitReq(ctx, Req{Engine: engine, Prep: p, Args: args})
}

// DoPrepared submits a prepared execution and waits for its result.
func (s *Service) DoPrepared(ctx context.Context, engine string, p *Prepared, args ...string) (any, error) {
	h, err := s.SubmitPrepared(ctx, engine, p, args...)
	if err != nil {
		return nil, err
	}
	return h.Wait(ctx)
}

// SubmitReq is the general submission entry point: tenant attribution,
// prepared executions, and streaming all go through it and share one
// admission path.
func (s *Service) SubmitReq(ctx context.Context, req Req) (*Handle, error) {
	query := req.Query
	if req.Prep != nil {
		query = req.Prep.query
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	t := s.tenantOf(req.Tenant)
	free := s.running < s.cfg.MaxConcurrent && t.running < s.tenantCap(t) &&
		len(t.queue) == 0
	if !free {
		full := (s.cfg.MaxQueued > 0 && s.nQueued >= s.cfg.MaxQueued) ||
			(s.cfg.MaxQueuedPerTenant > 0 && len(t.queue) >= s.cfg.MaxQueuedPerTenant)
		if full {
			s.st.rejected++
			t.rejected++
			err := &OverloadError{Tenant: t.name, Queued: len(t.queue), RetryAfter: s.retryAfter(t)}
			s.mu.Unlock()
			return nil, err
		}
	}
	s.nextID++
	h := &Handle{
		id:        s.nextID,
		tenant:    t.name,
		engine:    req.Engine,
		query:     query,
		prep:      req.Prep,
		args:      req.Args,
		sink:      req.Sink,
		col:       req.Collector,
		submitted: time.Now(),
		done:      make(chan struct{}),
	}
	if h.col == nil && s.cfg.ObsBegin != nil {
		h.col = s.cfg.ObsBegin()
	}
	qctx, cancel := context.WithCancel(ctx)
	h.cancel = cancel
	var w *waiter
	var share int
	if free {
		s.running++
		t.running++
		share = s.shareFor(t)
		t.granted += share
		s.recomputeThrottles()
	} else {
		w = &waiter{grant: make(chan int, 1), t: t}
		s.enqueue(w)
	}
	s.wg.Add(1)
	s.mu.Unlock()

	go s.run(h, qctx, t, w, share)
	return h, nil
}

// Do submits the query and waits for its result (sugar over Submit+Wait).
func (s *Service) Do(ctx context.Context, engine, query string) (any, error) {
	h, err := s.Submit(ctx, engine, query)
	if err != nil {
		return nil, err
	}
	return h.Wait(ctx)
}

// DoReq submits a request and waits for its result.
func (s *Service) DoReq(ctx context.Context, req Req) (any, error) {
	h, err := s.SubmitReq(ctx, req)
	if err != nil {
		return nil, err
	}
	return h.Wait(ctx)
}

// run is the per-query goroutine: admission wait (if queued) → execution
// → release → stats. w is nil when SubmitReq admitted the query
// immediately, in which case share is its worker grant.
func (s *Service) run(h *Handle, ctx context.Context, t *tenant, w *waiter, share int) {
	defer s.wg.Done()
	defer h.cancel()

	if w != nil {
		var err error
		share, err = s.await(ctx, w)
		if err != nil {
			s.finish(h, t, Outcome{}, err)
			return
		}
	}
	h.started = time.Now()
	h.workers = share

	mctx := exec.WithMorselCounter(ctx, &s.morsels)
	if s.cfg.MorselSize > 0 {
		mctx = exec.WithMorselSize(mctx, s.cfg.MorselSize)
	}
	if h.col != nil {
		mctx = obs.WithCollector(mctx, h.col)
	}
	// Morsel-level yielding: every dispatcher of this query calls back
	// between morsels; the pause is whatever the fairness controller
	// currently imposes on this query's tenant (usually zero).
	mctx = exec.WithYield(mctx, func() {
		if p := t.throttle.Load(); p > 0 {
			s.sleep(time.Duration(p))
		}
	})
	job := Job{Engine: h.engine, Text: h.query, Args: h.args, Workers: share, Sink: h.sink}
	if h.prep != nil {
		job.Stmt = h.prep.stmt
	}
	out, err := s.cfg.Executor.Run(mctx, job)
	h.ran = out.Used
	s.release(t, share, time.Since(h.started), err == nil)
	s.finish(h, t, out, err)
}

// await blocks until the queued waiter is granted a slot or ctx is
// done. On success it returns this query's worker share.
func (s *Service) await(ctx context.Context, w *waiter) (int, error) {
	select {
	case share := <-w.grant:
		return share, nil
	case <-ctx.Done():
		s.mu.Lock()
		select {
		case share := <-w.grant:
			// Lost the race: the slot was granted just as ctx fired.
			// Keep it — the executor will observe ctx and drain.
			s.mu.Unlock()
			return share, nil
		default:
			w.canceled = true
			// Dequeue now so the dead waiter stops counting against
			// the queue bounds and Stats.Queued.
			s.unqueue(w)
			s.mu.Unlock()
			return 0, ctx.Err()
		}
	}
}

// release returns a slot (and its workers), feeds the retry-after
// estimator, and admits whatever the scheduler picks next. Caller must
// not hold s.mu.
func (s *Service) release(t *tenant, workers int, execTime time.Duration, ok bool) {
	s.mu.Lock()
	s.running--
	s.granted -= workers
	t.running--
	t.granted -= workers
	if ok {
		t.observeExec(execTime)
		if s.execEWMA == 0 {
			s.execEWMA = execTime
		} else {
			s.execEWMA = (s.execEWMA*7 + execTime) / 8
		}
	}
	s.dispatch()
	s.mu.Unlock()
}

// finish records the query's outcome and releases its waiters.
func (s *Service) finish(h *Handle, t *tenant, out Outcome, err error) {
	h.finished = time.Now()
	h.latency.Store(int64(h.finished.Sub(h.submitted)) | 1) // non-zero even for a 0ns query
	if err != nil {
		h.err = err
	} else if out.Result != nil {
		// Stored only when non-nil, so a streamed query's Wait returns an
		// untyped nil, not a nil *logical.Result in an interface.
		h.result = out.Result
	}
	lat := h.finished.Sub(h.submitted)
	// Attribute to the engine that actually ran ("auto" resolves per
	// execution); a query that died in the queue never ran and keeps its
	// submitted engine.
	eng := h.ran
	if eng == "" {
		eng = h.engine
	}
	s.mu.Lock()
	switch {
	case err == nil:
		s.st.served++
		t.served++
		if h.prep != nil {
			s.st.preparedServed++
		}
		if h.sink != nil {
			s.st.streamedServed++
			t.streamed++
		}
		if s.st.perEngine == nil {
			s.st.perEngine = make(map[string]uint64)
		}
		// Hybrid executions count under one "hybrid" key regardless of
		// their per-pipeline assignment decoration.
		s.st.perEngine[engine.BaseName(eng)]++
		s.st.record(lat)
		t.record(lat)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		s.st.canceled++
		t.canceled++
	default:
		s.st.failed++
		t.failed++
	}
	s.mu.Unlock()
	if s.cfg.ObsEnd != nil && h.col != nil {
		info := QueryInfo{
			Tenant:         h.tenant,
			Engine:         h.engine,
			Used:           eng,
			Query:          h.query,
			Prepared:       h.prep != nil,
			Streamed:       h.sink != nil,
			Latency:        lat,
			QueueWait:      h.QueueWait(),
			Rows:           -1,
			CatalogVersion: out.CatalogVersion,
			Err:            err,
		}
		if err == nil {
			info.Rows = out.Rows
		}
		s.cfg.ObsEnd(h.col, info)
	}
	close(h.done)
}

// Close rejects new submissions and waits for every in-flight query
// (running or queued) to finish.
func (s *Service) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.wg.Wait()
}

// Stats returns a snapshot of the service's aggregate counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	st := s.st.snapshot()
	st.Submitted = s.nextID
	st.InFlight = s.running
	st.Queued = s.nQueued
	st.MorselsDispatched = s.morsels.Load()
	st.Uptime = time.Since(s.started)
	st.Tenants = make(map[string]TenantStats, len(s.tenants))
	for name, t := range s.tenants {
		st.Tenants[name] = t.snapshot()
	}
	s.mu.Unlock()
	st.Counters = s.cfg.Executor.Counters()
	return st
}
