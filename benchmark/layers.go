package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"paradigms"
	"paradigms/internal/compiled"
	"paradigms/internal/exchange"
	"paradigms/internal/hybrid"
	"paradigms/internal/logical"
	"paradigms/internal/obs"
	"paradigms/internal/prepcache"
	"paradigms/internal/server"
	"paradigms/internal/sql"
	"paradigms/internal/sqlcheck"
)

// prober takes the per-layer measurements of a traced run. Every layer
// is timed from outside, through its exported functions: the benchmark
// calls the boundaries of one query in order and records a span around
// each call.
type prober struct {
	e        *env
	tr       *tracer
	cache    *prepcache.Cache // the benchmark's own plan cache for the traced prepared path
	clusters map[*paradigms.DB]*exchange.Cluster
	m        map[string]float64

	attempted, failed int
	pipes             [][]obs.PipeStat // per traced query
	skews, gathers    []float64        // per scattered query: max/mean partial rows, merge+finalize ms
}

func newProber(e *env) *prober {
	return &prober{e: e, tr: newTracer(), cache: prepcache.New(0), m: make(map[string]float64),
		clusters: make(map[*paradigms.DB]*exchange.Cluster)}
}

func exchangeRequest(it *item, engine string, workers int) exchange.Request {
	return exchange.Request{SQL: it.adhoc, Engine: engine, Workers: workers}
}

// budget runs fn until the time is up, but at least lo times.
func budget(d time.Duration, lo int, fn func(i int)) int {
	deadline := time.Now().Add(d)
	i := 0
	for ; i < lo || time.Now().Before(deadline); i++ {
		fn(i)
	}
	return i
}

func (p *prober) fail(err error) {
	p.failed++
	fmt.Fprintf(logw, "benchmark: traced run: %v\n", err)
}

// partition builds the standalone clusters of a sharded workload, the
// same way the service builds its own, and times it.
func (p *prober) partition() error {
	n := p.e.cfg.workload.shards
	if n <= 1 {
		return nil
	}
	start := time.Now()
	for _, db := range []*paradigms.DB{p.e.tpch, p.e.ssb} {
		cl, err := paradigms.NewCluster(db, n)
		if err != nil {
			return err
		}
		p.clusters[db] = cl
	}
	p.m["exchange.partition_s"] = time.Since(start).Seconds()
	return nil
}

// plan runs the front-end stages of one text under parent.
func (p *prober) plan(parent, q int, db *paradigms.DB, text string) (*logical.Plan, error) {
	cat := logical.CatalogFor(db)
	id := p.tr.begin("sql.parse", parent, q)
	sel, err := sql.Parse(text)
	p.tr.end(id)
	if err != nil {
		return nil, err
	}
	id = p.tr.begin("sql.bind", parent, q)
	err = sql.Bind(sel, cat)
	p.tr.end(id)
	if err != nil {
		return nil, err
	}
	id = p.tr.begin("logical.plan", parent, q)
	pl, err := logical.PlanQuery(sel, cat)
	p.tr.end(id)
	return pl, err
}

// tracedQuery drives one query through the layer boundaries in order:
// front-end (or plan-cache lookup and argument binding), lowering,
// execution with the per-pipeline collector, merge and finalize. The
// engines lower again inside their own Execute; the separately timed
// lowering is what measuring from outside costs.
func (p *prober) tracedQuery(q int, it *item, engine string, prepared bool) (*logical.Result, error) {
	db, err := logical.RouteByTables(it.adhoc, p.e.tpch, p.e.ssb)
	if err != nil {
		return nil, err
	}
	workers := p.e.cfg.clients
	root := p.tr.begin("query", -1, q)
	defer func() { p.tr.end(root) }()

	var pl *logical.Plan
	if prepared {
		id := p.tr.begin("prepcache.miss", root, q)
		st, hit, err := p.cache.GetOrPrepare(logical.CatalogFor(db), it.tmpl.text, func() (*logical.Plan, error) {
			return p.plan(id, q, db, it.tmpl.text)
		})
		p.tr.end(id)
		if err != nil {
			return nil, err
		}
		if hit {
			p.tr.spans[id].Name = "prepcache.hit"
		}
		id = p.tr.begin("logical.bind_args", root, q)
		vals, err := st.Plan().BindTexts(it.args)
		if err == nil {
			pl, err = st.Plan().BindArgs(vals)
		}
		p.tr.end(id)
		if err != nil {
			return nil, err
		}
	} else if pl, err = p.plan(root, q, db, it.adhoc); err != nil {
		return nil, err
	}

	if engine != "tectorwise" {
		id := p.tr.begin("compiled.lower", root, q)
		_, err = compiled.LowerProgram(pl)
		p.tr.end(id)
		if err != nil {
			return nil, err
		}
	}
	if engine != "typer" {
		id := p.tr.begin("logical.lower_vec", root, q)
		_, err = logical.LowerVec(pl)
		p.tr.end(id)
		if err != nil {
			return nil, err
		}
	}

	var res *logical.Result
	if cl := p.clusters[db]; cl != nil && engine != "hybrid" {
		res, err = p.scatter(root, q, cl, db, pl, it, engine, workers)
	} else {
		res, err = p.execute(root, q, pl, engine, workers)
	}
	if err != nil {
		return nil, err
	}
	if n := int64(len(res.Rows)); n != it.rows {
		return nil, fmt.Errorf("%s on %s returned %d rows, want %d", it.tmpl.name, engine, n, it.rows)
	}
	return res, nil
}

var execSpan = map[string]string{"typer": "compiled.exec", "tectorwise": "logical.exec", "hybrid": "hybrid.exec"}

// execute runs a bound plan single-process. The pure engines stop at the
// exchange boundary so merge and finalize get their own spans; the
// hybrid has no partial path and finalizes inside its exec span.
func (p *prober) execute(root, q int, pl *logical.Plan, engine string, workers int) (*logical.Result, error) {
	col := obs.NewCollector()
	ctx := obs.WithCollector(context.Background(), col)
	var (
		part *logical.Partial
		res  *logical.Result
		err  error
	)
	id := p.tr.begin(execSpan[engine], root, q)
	switch engine {
	case "typer":
		part, err = compiled.ExecutePartial(ctx, pl, workers)
	case "tectorwise":
		part, err = pl.ExecutePartial(ctx, workers, 0)
	default:
		res, _, err = hybrid.ExecuteRouted(ctx, pl, workers, 0, nil)
	}
	p.tr.end(id)
	if err != nil {
		return nil, err
	}
	p.pipeSpans(id, q, col.Pipes())
	if part != nil {
		return p.mergeFinalize(root, q, pl, []*logical.Partial{part})
	}
	return res, nil
}

// pipeSpans synthesizes the children of an exec span from the
// collector's per-pipeline wall times: pipelines run one after another,
// build pipelines first.
func (p *prober) pipeSpans(execID, q int, pipes []obs.PipeStat) {
	p.pipes = append(p.pipes, pipes)
	ex := p.tr.spans[execID]
	at := ex.Start
	for _, ps := range pipes {
		end := min(at+ps.Nanos, ex.End)
		p.tr.add(pipeName(ps), execID, q, at, end)
		at = end
	}
}

// pipeName names a pipeline by the backend that ran it and its role.
func pipeName(ps obs.PipeStat) string {
	name := "logical.pipe_"
	if ps.Engine == "t" {
		name = "compiled.pipe_"
	}
	if ps.Build {
		return name + "build"
	}
	return name + "final"
}

// mergeFinalize is logical.(*Plan).MergePartials taken apart so the
// merge and the finalization tail are timed separately. One partial
// needs no merge, as in single-process execution. It is a copy of the
// product's logic: compareExchange holds its rows to Cluster.Run's.
func (p *prober) mergeFinalize(root, q int, pl *logical.Plan, parts []*logical.Partial) (*logical.Result, error) {
	id := p.tr.begin("logical.merge_partials", root, q)
	var rows [][]int64
	switch agg := pl.Agg; {
	case agg != nil && len(agg.Keys) > 0 && len(parts) == 1:
		rows = parts[0].Groups
	case agg != nil && len(agg.Keys) > 0:
		rows = logical.MergeGroupRows(agg, parts)
	case agg != nil:
		var gps []logical.GlobalPartial
		for _, pt := range parts {
			gps = append(gps, pt.Globals...)
		}
		rows = [][]int64{logical.MergeGlobal(agg, gps)}
	default:
		for _, pt := range parts {
			rows = append(rows, pt.Rows...)
		}
	}
	p.tr.end(id)
	id = p.tr.begin("logical.finalize", root, q)
	res, err := pl.FinalizeRows(rows)
	p.tr.end(id)
	return res, err
}

// scatter is exchange.(*Cluster).Run taken apart: placement check,
// every shard's partial in parallel, then merge and finalize on the
// coordinator. Like mergeFinalize it is a copy that compareExchange
// checks against the original.
func (p *prober) scatter(root, q int, cl *exchange.Cluster, db *paradigms.DB, pl *logical.Plan, it *item, engine string, workers int) (*logical.Result, error) {
	id := p.tr.begin("logical.distribute", root, q)
	dp, err := logical.Distribute(pl, exchange.PartitionKeys(db))
	p.tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("%s does not distribute: %w", it.tmpl.name, err)
	}
	n := cl.Shards()
	if dp.Mode == logical.DistSingle {
		n = 1
	}
	req := exchangeRequest(it, engine, max(1, workers/n))
	parts := make([]*logical.Partial, n)
	errs := make([]error, n)
	starts, ends := make([]int64, n), make([]int64, n)
	scatterID := p.tr.begin("exchange.scatter", root, q)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			starts[i] = p.tr.now()
			parts[i], errs[i] = cl.Shard(i).Partial(context.Background(), req)
			ends[i] = p.tr.now()
		}(i)
	}
	wg.Wait()
	p.tr.end(scatterID)
	last, maxRows, sumRows := 0, 0, 0
	for i := range parts {
		if errs[i] != nil {
			return nil, errs[i]
		}
		if ends[i] > ends[last] {
			last = i
		}
		r := len(parts[i].Groups) + len(parts[i].Rows) + len(parts[i].Globals)
		maxRows, sumRows = max(maxRows, r), sumRows+r
	}
	for i := range parts {
		sid := p.tr.add("exchange.shard_partial", scatterID, q, starts[i], ends[i])
		p.tr.spans[sid].OffPath = i != last
	}
	if sumRows > 0 {
		p.skews = append(p.skews, float64(maxRows)*float64(n)/float64(sumRows))
	}
	gather := time.Now()
	res, err := p.mergeFinalize(root, q, pl, parts)
	if err != nil {
		return nil, err
	}
	p.gathers = append(p.gathers, ms(time.Since(gather)))
	return res, nil
}

// compareExchange times, beside a scattered query and outside its span,
// Cluster.Run whole and the same text on the same engine over the
// unpartitioned database. Both must return the rows of apart, the result
// of the benchmark's taken-apart copy of Cluster.Run: shard_partial_ms,
// merge_ms and merge_partials_ms time that copy, and a copy that drifted
// from the product code would time something the service no longer does.
func (p *prober) compareExchange(q int, cl *exchange.Cluster, db *paradigms.DB, it *item, engine string, apart *logical.Result) error {
	workers := p.e.cfg.clients
	id := p.tr.begin("exchange.run", -1, q)
	whole, err := cl.Run(context.Background(), exchangeRequest(it, engine, workers))
	p.tr.end(id)
	if err != nil {
		return err
	}
	id = p.tr.begin("exchange.single", -1, q)
	single, err := runRows(db, engine, it.adhoc, workers)
	p.tr.end(id)
	if err != nil {
		return err
	}
	want := sqlcheck.Canon(apart.Rows)
	if !sqlcheck.SameRows(want, sqlcheck.Canon(whole.Rows)) {
		return fmt.Errorf("%s on %s: the taken-apart scatter/merge and Cluster.Run return different rows", it.tmpl.name, engine)
	}
	if !sqlcheck.SameRows(want, sqlcheck.Canon(single)) {
		return fmt.Errorf("%s on %s: sharded and single-process rows differ", it.tmpl.name, engine)
	}
	return nil
}

// replay runs the seeded schedule through tracedQuery, one query at a
// time, for d (at least lo queries), skipping the auto arm: routing is a
// decision of the running service, not a layer boundary.
func (p *prober) replay(d time.Duration, lo int) {
	c := p.e.newLoopClient(0)
	q := 0
	for deadline := time.Now().Add(d); q < lo || time.Now().Before(deadline); {
		engine, it, prepared := p.e.pick(c, c.next)
		c.next++
		if engine == "auto" {
			continue
		}
		p.attempted++
		root := len(p.tr.spans)
		res, err := p.tracedQuery(q, it, engine, prepared)
		if db, _ := logical.RouteByTables(it.adhoc, p.e.tpch, p.e.ssb); err == nil && p.clusters[db] != nil && engine != "hybrid" {
			err = p.compareExchange(q, p.clusters[db], db, it, engine, res)
		}
		if err != nil {
			p.fail(err)
			p.tr.spans[root].Name = "query.failed"
		}
		q++
	}
	p.m["trace.queries"] = float64(q)
}

// wireReplay sends the same schedule through the front door from one
// client twice: plain, then traced — asking the server for its
// per-pipeline telemetry and recording client.request > server,
// proto.wire spans. The ratio of the two medians is what tracing costs.
func (p *prober) wireReplay(d time.Duration, lo int) {
	clients := p.e.newClients(false)
	defer closeClients(clients)
	c := clients[0]
	ctx := context.Background()
	var plain, traced []float64
	n := budget(d/2, lo, func(i int) {
		p.attempted++
		if s := p.e.request(ctx, c, i, false); s.failed {
			p.failed++
		} else {
			plain = append(plain, ms(s.lat))
		}
	})
	for i := 0; i < n; i++ {
		p.attempted++
		start := p.tr.now()
		s := p.e.request(ctx, c, i, true)
		end := p.tr.now()
		if s.failed {
			p.failed++
			continue
		}
		traced = append(traced, ms(s.lat))
		id := p.tr.add("client.request", -1, i, start, end)
		mid := min(start+int64(s.server), end)
		p.tr.add("server", id, i, start, mid)
		p.tr.add("proto.wire", id, i, mid, end)
	}
	if m := median(plain); m > 0 {
		p.m["trace.overhead_ratio"] = median(traced) / m
	}
}

// discardSink is a logical.RowSink that drops its rows.
type discardSink struct{}

func (discardSink) SetCols([]logical.OutCol) error { return nil }
func (discardSink) PushRows([][]int64) error       { return nil }

// probeStream times both pure engines streaming into a discarding sink:
// the result path's engine half, without encode, flush or decode.
func (p *prober) probeStream(d time.Duration) {
	ctx := context.Background()
	var typer, tw []float64
	budget(d, 4, func(i int) {
		it := p.e.items[i%len(p.e.items)]
		db, _ := logical.RouteByTables(it.adhoc, p.e.tpch, p.e.ssb)
		pl, err := logical.Prepare(db, it.adhoc)
		if err != nil {
			p.fail(err)
			return
		}
		t := time.Now()
		err = compiled.ExecuteStream(ctx, pl, p.e.cfg.clients, 0, discardSink{})
		typer = append(typer, ms(time.Since(t)))
		if err == nil {
			t = time.Now()
			err = pl.ExecuteStream(ctx, p.e.cfg.clients, 0, 0, discardSink{})
			tw = append(tw, ms(time.Since(t)))
		}
		if err != nil {
			p.fail(err)
		}
	})
	p.m["compiled.stream_exec_ms"] = median(typer)
	p.m["logical.stream_exec_ms"] = median(tw)
}

// probePlanCache times a plan-cache miss (parse, bind, plan and insert)
// and a hit on a fresh cache, per template.
func (p *prober) probePlanCache() {
	var hit, miss []float64
	for i := range p.e.cfg.workload.templates {
		t := &p.e.cfg.workload.templates[i]
		db, _ := logical.RouteByTables(t.text, p.e.tpch, p.e.ssb)
		cat := logical.CatalogFor(db)
		build := func() (*logical.Plan, error) { return logical.Prepare(db, t.text) }
		for rep := 0; rep < 5; rep++ {
			cache := prepcache.New(0)
			start := time.Now()
			_, _, err := cache.GetOrPrepare(cat, t.text, build)
			miss = append(miss, us(time.Since(start)))
			if err != nil {
				p.fail(err)
				return
			}
			for k := 0; k < 20; k++ {
				start = time.Now()
				cache.GetOrPrepare(cat, t.text, build)
				hit = append(hit, us(time.Since(start)))
			}
		}
	}
	p.m["prepcache.hit_us"] = median(hit)
	p.m["prepcache.miss_us"] = median(miss)
}

// probeSubmit compares the service's materialized submission path with
// the direct engine call it wraps, same text, same engine, alternating.
// The hybrid engine runs single-process whether or not the service is
// sharded, so the difference is admission, scheduling, stats, telemetry
// and the query-log write — nothing of the exchange.
func (p *prober) probeSubmit(d time.Duration) {
	ctx := context.Background()
	var over, wait []float64
	budget(d, 6, func(i int) {
		it := p.e.items[i%len(p.e.items)]
		db, _ := logical.RouteByTables(it.adhoc, p.e.tpch, p.e.ssb)
		start := time.Now()
		_, err := runRows(db, "hybrid", it.adhoc, p.e.cfg.clients)
		direct := time.Since(start)
		if err != nil {
			p.fail(err)
			return
		}
		start = time.Now()
		h, err := p.e.svc.SubmitReq(ctx, server.Req{Tenant: "probe", Engine: "hybrid", Query: it.adhoc})
		if err == nil {
			_, err = h.Wait(ctx)
		}
		via := time.Since(start)
		if err != nil {
			p.fail(err)
			return
		}
		over = append(over, us(via-direct))
		wait = append(wait, us(h.QueueWait()))
	})
	p.m["server.submit_overhead_us"] = median(over)
	p.m["server.queue_wait_us"] = median(wait)
}

// probeObs measures what telemetry costs: execution with a collector
// against without, one query-log write, and one /metricsz render.
func (p *prober) probeObs(d time.Duration) error {
	ctx := context.Background()
	var with, without []float64
	var pipes []obs.PipeStat
	budget(d, 6, func(i int) {
		it := p.e.items[i%len(p.e.items)]
		db, _ := logical.RouteByTables(it.adhoc, p.e.tpch, p.e.ssb)
		pl, err := logical.Prepare(db, it.adhoc)
		if err != nil {
			p.fail(err)
			return
		}
		start := time.Now()
		_, err = compiled.Execute(ctx, pl, p.e.cfg.clients)
		without = append(without, us(time.Since(start)))
		if err == nil {
			col := obs.NewCollector()
			start = time.Now()
			_, err = compiled.Execute(obs.WithCollector(ctx, col), pl, p.e.cfg.clients)
			with = append(with, us(time.Since(start)))
			pipes = col.Pipes()
		}
		if err != nil {
			p.fail(err)
		}
	})
	if m := median(without); m > 0 {
		p.m["obs.collector_overhead_ratio"] = median(with) / m
	}

	ql, err := obs.OpenQueryLog(filepath.Join(p.e.tmpDir, "probe.ndjson"), 0)
	if err != nil {
		return err
	}
	defer ql.Close()
	rec := obs.QueryRecord{Time: time.Now().UTC().Format(time.RFC3339Nano), Tenant: "probe", Engine: "typer", Used: "typer",
		SQL: prepcache.Normalize(p.e.items[0].adhoc), PlanShape: obs.ShapeHash(pipes), LatencyMs: 1, Rows: 1, Pipes: pipes}
	var writes []float64
	for i := 0; i < 200; i++ {
		start := time.Now()
		if err := ql.Write(&rec); err != nil {
			return err
		}
		writes = append(writes, us(time.Since(start)))
	}
	p.m["obs.qlog_write_us"] = median(writes)

	var renders []float64
	for i := 0; i < 50; i++ {
		rec := httptest.NewRecorder()
		start := time.Now()
		p.e.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metricsz", nil))
		renders = append(renders, us(time.Since(start)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("/metricsz returned %d", rec.Code)
		}
	}
	p.m["obs.metricsz_render_us"] = median(renders)
	return nil
}

// statements returns the service's prepared statements of the workload.
func (e *env) statements() []*prepcache.Statement {
	var out []*prepcache.Statement
	if m := e.cfg.workload.mode; m != sendPrepared && m != sendAlternate {
		return nil
	}
	for i := range e.cfg.workload.templates {
		if pr, err := e.svc.Prepare(e.cfg.workload.templates[i].text); err == nil {
			if st, ok := pr.Stmt().(*prepcache.Statement); ok {
				out = append(out, st)
			}
		}
	}
	return out
}

func fileSize(path string) float64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return float64(st.Size())
}
