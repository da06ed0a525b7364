package paradigms

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"paradigms/internal/engine"
	"paradigms/internal/exchange"
	"paradigms/internal/exec"
	"paradigms/internal/hybrid"
	"paradigms/internal/logical"
	"paradigms/internal/obs"
	"paradigms/internal/prepcache"
	"paradigms/internal/server"
	"paradigms/internal/sqlcheck"
)

// collectSink is the materialized-result-as-a-RowSink of the matrix
// test: it copies every streamed batch (the sink contract forbids
// retaining the pushed slices).
type collectSink struct {
	cols []logical.OutCol
	rows [][]int64
}

func (c *collectSink) SetCols(cols []logical.OutCol) error {
	c.cols = cols
	return nil
}

func (c *collectSink) PushRows(rows [][]int64) error {
	for _, r := range rows {
		c.rows = append(c.rows, append([]int64(nil), r...))
	}
	return nil
}

// poisonSink is collectSink enforcing the other half of the contract:
// once PushRows returns, the pushed rows belong to the driver again.
// It overwrites every value it was handed, so a backend that retained a
// pushed row (or re-read one) produces garbage, and records where each
// batch's first row lived, so a test can tell a reused arena from a
// fresh allocation (the pointers keep every batch's memory alive: a
// repeated address is reuse, not the allocator recycling a freed
// block).
type poisonSink struct {
	collectSink
	first []*int64
}

func (p *poisonSink) PushRows(rows [][]int64) error {
	p.collectSink.PushRows(rows)
	if len(rows[0]) > 0 {
		p.first = append(p.first, &rows[0][0])
	}
	for _, r := range rows {
		for j := range r {
			r[j] = math.MinInt64 + 0xdead
		}
	}
	return nil
}

// TestEngineMatrix enumerates the execution matrix instead of
// hand-listing corners: every cell of {typer, tectorwise, hybrid} ×
// {literal text, `?` text + args} × {materialize, stream into a
// collecting sink, stream into a sink that poisons what it was pushed,
// partial → MergePartials} × workers {1, 4} runs a
// slice of the sqlcheck corpus through engine.Run — the one dispatch
// every caller uses — and must reproduce the oracle's row multiset; so
// must every engine × form through exchange.Cluster.Run at 1 and 3
// shards — and, through the front door, every engine × {ad-hoc,
// prepared} × {materialized, streamed} on a Shards: 3 service, next to
// the same request on an unsharded one. The matrix has no unsupported
// cell: all three engines are assignment policies over one pipeline
// driver. What that driver
// promises rides along as subtests: a streamed projection is
// incremental on every engine and reuses one row arena per worker, a
// hybrid forced all-fused (all-
// vectorized) reports the telemetry of typer (tectorwise), bad calls
// are rejected without blaming a backend, executor panics come back as
// errors, and cancellation is never an engine fault.
func TestEngineMatrix(t *testing.T) {
	t.Run("corpus", engineMatrixCorpus)
	t.Run("service-shards", engineMatrixService)
	t.Run("incremental-stream", engineStreamIsIncremental)
	t.Run("stream-arena-reuse", engineStreamReusesArena)
	t.Run("forced-hybrid-telemetry", engineForcedHybridTelemetry)
	t.Run("bad-calls", engineRunRejectsBadCalls)
	t.Run("panic", engineRunRecoversPanics)
	t.Run("canceled", engineRunCanceled)
}

func engineMatrixCorpus(t *testing.T) {
	tpchDB, ssbDB := sqlDBs()
	ctx := context.Background()
	engines := []string{engine.Typer, engine.Tectorwise, engine.Hybrid}
	modes := []string{"materialize", "stream", "stream-poison", "partial"}
	paramCells := 0
	seen := layoutTally{}
	clusters := map[*DB][]*exchange.Cluster{}
	for _, db := range []*DB{tpchDB, ssbDB} {
		for _, n := range []int{1, 3} {
			cl, err := exchange.New(db, n)
			if err != nil {
				t.Fatal(err)
			}
			clusters[db] = append(clusters[db], cl)
		}
	}

	for seed := int64(3000); seed < 3024; seed++ {
		db := tpchDB
		if seed%2 == 1 {
			db = ssbDB
		}
		text, bindings := sqlcheck.GenerateParameterized(rand.New(rand.NewSource(seed)), db)
		lit := sqlcheck.Substitute(text, bindings[0])
		want, err := sqlcheck.Oracle(db, lit)
		if err != nil {
			t.Fatalf("oracle failed for %q: %v", lit, err)
		}

		type form struct {
			label, text string
			pl          *logical.Plan
			args        []int64
		}
		litPlan, err := logical.Prepare(db, lit)
		if err != nil {
			t.Fatalf("prepare %q: %v", lit, err)
		}
		forms := []form{{"literal", lit, litPlan, nil}}
		if tmpl, err := logical.Prepare(db, text); err != nil {
			t.Fatalf("prepare %q: %v", text, err)
		} else if len(tmpl.Params) > 0 {
			args, err := tmpl.BindTexts(bindings[0])
			if err != nil {
				t.Fatalf("bind %v for %q: %v", bindings[0], text, err)
			}
			forms = append(forms, form{"args", text, tmpl, args})
		}

		for _, f := range forms {
			for _, name := range engines {
				for _, cl := range clusters[db] {
					res, err := cl.Run(parallelCtx(t, ctx, f.pl, 4, cl.Shards()), exchange.Request{SQL: f.text, Args: f.args, Engine: name, Workers: 4})
					if err != nil {
						t.Fatalf("%s/%s/shards=%d %q %v: %v", name, f.label, cl.Shards(), text, f.args, err)
					}
					if !sqlcheck.SameRows(res.Rows, want) {
						t.Errorf("%s/%s/shards=%d %q %v differs from oracle\n got %v\nwant %v",
							name, f.label, cl.Shards(), text, f.args, clip(res.Rows), clip(want))
					}
				}
				for _, mode := range modes {
					for _, workers := range []int{1, 4} {
						cell := fmt.Sprintf("%s/%s/%s/w=%d %q %v", name, f.label, mode, workers, text, f.args)
						opt := engine.Options{Args: f.args, Workers: workers}
						var poison poisonSink
						sink := &poison.collectSink
						switch mode {
						case "stream":
							opt.Sink, opt.Chunk = sink, 7
						case "stream-poison":
							opt.Sink, opt.Chunk = &poison, 7
						case "partial":
							opt.Partial = true
						}
						cctx, ranOn := cellCtx(t, ctx, f.pl, workers, seen)
						out, err := engine.Run(cctx, name, f.pl, opt)
						if err != nil {
							t.Fatalf("%s: %v", cell, err)
						}
						ranOn(cell)
						if !strings.HasPrefix(out.Used, name) || (name == engine.Hybrid) != strings.Contains(out.Used, "[") {
							t.Errorf("%s: engine used = %q", cell, out.Used)
						}
						var got [][]int64
						switch mode {
						case "materialize":
							got = out.Result.Rows
						case "stream", "stream-poison":
							if len(sink.cols) != len(f.pl.Cols) {
								t.Errorf("%s: streamed %d cols, plan has %d", cell, len(sink.cols), len(f.pl.Cols))
							}
							got = sink.rows
						case "partial":
							// Merge like the exchange coordinator: on the
							// bound plan, so HAVING sees the binding.
							bound, err := f.pl.BindArgs(f.args)
							if err != nil {
								t.Fatalf("%s: %v", cell, err)
							}
							res, err := bound.MergePartials([]*logical.Partial{out.Partial})
							if err != nil {
								t.Fatalf("%s: merge: %v", cell, err)
							}
							got = res.Rows
						}
						if !sqlcheck.SameRows(got, want) {
							t.Errorf("%s differs from oracle\n got %v\nwant %v", cell, clip(got), clip(want))
						}
						if f.args != nil {
							paramCells++
						}
					}
				}
			}
		}
	}
	if paramCells == 0 {
		t.Fatal("corpus slice exercised no parameterized statement")
	}
	seen.requireBothSides(t)
}

// engineMatrixService is the shard axis through the front door: the
// corpus slice runs on a Shards: 3 service and on an unsharded one, as
// {typer, tectorwise, hybrid} × {ad-hoc, prepared} × {materialized,
// streamed} plus prepared auto, and every cell must reproduce the
// oracle's row multiset on both. The sharded service's exchange
// counters say which way each request went: typer and tectorwise reach
// the cluster exactly once per request in all four forms, hybrid and
// auto never do, and nothing falls back.
func engineMatrixService(t *testing.T) {
	tpchDB, ssbDB := sqlDBs()
	ctx := context.Background()
	sharded := NewService(tpchDB, ssbDB, ServiceOptions{Shards: 3, StreamChunk: 7})
	defer sharded.Close()
	local := NewService(tpchDB, ssbDB, ServiceOptions{StreamChunk: 7})
	defer local.Close()

	// run executes one cell on one service and returns its rows.
	run := func(svc *server.Service, req server.Req, streamed bool) ([][]int64, error) {
		var sink collectSink
		if streamed {
			req.Sink = &sink
		}
		res, err := svc.DoReq(ctx, req)
		if err != nil {
			return nil, err
		}
		if streamed {
			if res != nil {
				return nil, fmt.Errorf("streamed request returned a %T", res)
			}
			return sink.rows, nil
		}
		return res.(*logical.Result).Rows, nil
	}

	var scattered uint64
	cells := 0
	for seed := int64(3000); seed < 3024; seed++ {
		db := tpchDB
		if seed%2 == 1 {
			db = ssbDB
		}
		text, bindings := sqlcheck.GenerateParameterized(rand.New(rand.NewSource(seed)), db)
		lit := sqlcheck.Substitute(text, bindings[0])
		if routed, _ := logical.RouteByTables(lit, tpchDB, ssbDB); routed != db {
			continue // an SSB text over tables TPC-H also names (part, supplier, customer) routes to TPC-H
		}
		cells++
		want, err := sqlcheck.Oracle(db, lit)
		if err != nil {
			t.Fatalf("oracle failed for %q: %v", lit, err)
		}
		for _, name := range []string{engine.Typer, engine.Tectorwise, engine.Hybrid, prepcache.Auto} {
			for _, prepared := range []bool{false, true} {
				if name == prepcache.Auto && !prepared {
					continue // auto is a prepared-only engine name
				}
				for _, streamed := range []bool{false, true} {
					cell := fmt.Sprintf("%s/prepared=%v/streamed=%v %q %v", name, prepared, streamed, text, bindings[0])
					var rows [2][][]int64
					before := sharded.Stats().Counters
					for i, svc := range []*server.Service{sharded, local} {
						req := server.Req{Engine: name, Query: lit}
						if prepared {
							p, err := svc.Prepare(text)
							if err != nil {
								t.Fatalf("%s: prepare: %v", cell, err)
							}
							req = server.Req{Engine: name, Prep: p, Args: bindings[0]}
						}
						if rows[i], err = run(svc, req, streamed); err != nil {
							t.Fatalf("%s (service %d): %v", cell, i, err)
						}
						if !sqlcheck.SameRows(rows[i], want) {
							t.Errorf("%s (service %d) differs from oracle\n got %v\nwant %v", cell, i, clip(rows[i]), clip(want))
						}
					}
					if !sqlcheck.SameRows(rows[0], rows[1]) {
						t.Errorf("%s: Shards: 3 and Shards: 0 disagree", cell)
					}
					after := sharded.Stats().Counters
					reached := after.ExchangeScattered + after.ExchangeSingleShard - before.ExchangeScattered - before.ExchangeSingleShard
					if onShards := name == engine.Typer || name == engine.Tectorwise; onShards && reached != 1 || !onShards && reached != 0 {
						t.Errorf("%s: reached the cluster %d times", cell, reached)
					}
					scattered += after.ExchangeScattered - before.ExchangeScattered
				}
			}
		}
	}
	if cells < 12 {
		t.Fatalf("only %d of 24 corpus texts route to the database they were generated for", cells)
	}
	st := sharded.Stats()
	if scattered == 0 || st.ExchangeFallback != 0 {
		t.Errorf("sharded service: %d requests scattered, %d fell back; want some and none", scattered, st.ExchangeFallback)
	}
	if c := local.Stats().Counters; c.ExchangeScattered+c.ExchangeSingleShard+c.ExchangeFallback != 0 {
		t.Errorf("unsharded service reports exchange traffic: %+v", c)
	}
}

// cancelingSink cancels the query's context on its first batch.
type cancelingSink struct {
	collectSink
	cancel context.CancelFunc
}

func (c *cancelingSink) PushRows(rows [][]int64) error {
	c.cancel()
	return c.collectSink.PushRows(rows)
}

// engineStreamIsIncremental: a streamed projection hands rows to the
// sink while the scan is still running, on every engine. At one worker
// and 256-row morsels, a sink that cancels the query on its first
// batch must leave most of the table's morsels unclaimed; an engine
// that materialized before it chunked would have claimed them all.
func engineStreamIsIncremental(t *testing.T) {
	db, _ := sqlDBs()
	pl, err := logical.Prepare(db, "select o_orderkey, o_custkey from orders")
	if err != nil {
		t.Fatal(err)
	}
	const morsel = 256
	tableMorsels := int64((db.Rel("orders").Rows() + morsel - 1) / morsel)
	for _, name := range []string{engine.Typer, engine.Tectorwise, engine.Hybrid} {
		var claimed atomic.Int64
		ctx, cancel := context.WithCancel(context.Background())
		ctx = exec.WithMorselCounter(exec.WithMorselSize(ctx, morsel), &claimed)
		sink := &cancelingSink{cancel: cancel}
		_, err := engine.Run(ctx, name, pl, engine.Options{Workers: 1, Sink: sink, Chunk: 16})
		cancel()
		if err != context.Canceled {
			t.Errorf("%s: err=%v, want context.Canceled", name, err)
		}
		if len(sink.rows) == 0 || claimed.Load() >= tableMorsels {
			t.Errorf("%s: sink saw %d rows after %d of %d morsels; the stream is not incremental",
				name, len(sink.rows), claimed.Load(), tableMorsels)
		}
	}
}

// engineStreamReusesArena: the rows a streamed projection pushes live
// in one per-worker arena that the driver refills after every flush,
// not in per-row (or per-batch) allocations. At one worker every batch
// must start at the same address — and since the sink poisons each
// batch after copying it, the copied result still matching the
// materialized one shows the driver rewrites the arena before it
// pushes it again.
func engineStreamReusesArena(t *testing.T) {
	db, _ := sqlDBs()
	pl, err := logical.Prepare(db, "select l_orderkey, l_quantity, l_extendedprice from lineitem where l_quantity < 10")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, name := range []string{engine.Typer, engine.Tectorwise, engine.Hybrid} {
		want, err := engine.Run(ctx, name, pl, engine.Options{Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var sink poisonSink
		if _, err := engine.Run(ctx, name, pl, engine.Options{Workers: 1, Sink: &sink, Chunk: 64}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !sqlcheck.SameRows(sink.rows, want.Result.Rows) {
			t.Errorf("%s: streamed rows differ from the materialized result\n got %v\nwant %v", name, clip(sink.rows), clip(want.Result.Rows))
		}
		if len(sink.first) <= 3 {
			t.Fatalf("%s: %d batches; the projection must span more than three chunks", name, len(sink.first))
		}
		for i, p := range sink.first {
			if p != sink.first[0] {
				t.Fatalf("%s: batch %d starts at %p, batch 0 at %p: the row arena is reallocated, not reused", name, i, p, sink.first[0])
			}
		}
	}
}

// engineForcedHybridTelemetry: hybrid has no driver of its own, so an
// assignment forcing every pipeline fused (vectorized) must leave the same
// per-pipeline story in the collector as typer (tectorwise) on the
// same plan: engine tags, observed row counts, hash-table sizes, and —
// for the vectorized pair at a fixed vector size — batch counts.
func engineForcedHybridTelemetry(t *testing.T) {
	db, _ := sqlDBs()
	pl, err := logical.Prepare(db, telemetryQ3)
	if err != nil {
		t.Fatal(err)
	}
	const workers, vecSize = 2, 1000
	run := func(name string) []obs.PipeStat {
		col := obs.NewCollector()
		if _, err := engine.Run(obs.WithCollector(context.Background(), col), name, pl, engine.Options{Workers: workers, VecSize: vecSize}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return col.Pipes()
	}
	forced := func(to hybrid.Engine) []obs.PipeStat {
		col := obs.NewCollector()
		assign := []hybrid.Engine{to, to, to}
		if _, _, err := hybrid.ExecuteRouted(obs.WithCollector(context.Background(), col), pl, workers, vecSize, assign); err != nil {
			t.Fatalf("hybrid forced to %s: %v", to, err)
		}
		return col.Pipes()
	}
	for _, tc := range []struct {
		pure string
		to   hybrid.Engine
	}{{engine.Typer, hybrid.EngineCompiled}, {engine.Tectorwise, hybrid.EngineVectorized}} {
		want := run(tc.pure)
		got := forced(tc.to)
		if len(got) != len(want) || len(got) != 3 {
			t.Fatalf("%s: %d pipes, forced hybrid %d, want 3", tc.pure, len(want), len(got))
		}
		for i := range want {
			w, g := want[i], got[i]
			if g.Engine != tc.to.String() || w.Engine != g.Engine || w.RowsOut != g.RowsOut || w.HTRows != g.HTRows ||
				w.Batches != g.Batches || w.VecSize != g.VecSize || w.Table != g.Table || w.Build != g.Build || w.EstRows != g.EstRows {
				t.Errorf("pipe %d: %s reported %+v, forced hybrid %+v", i, tc.pure, w, g)
			}
		}
	}
}

// engineRunRejectsBadCalls: the dispatch's own error paths — an
// unknown engine, a wrong-arity binding, a partial execution asked to
// stream — are the caller's errors, reported without running a
// backend.
func engineRunRejectsBadCalls(t *testing.T) {
	db, _ := sqlDBs()
	pl, err := logical.Prepare(db, "select count(*) from orders where o_custkey < ?")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, tc := range []struct {
		label, name, want string
		opt               engine.Options
	}{
		{"unknown engine", "reference", "unknown engine", engine.Options{Args: []int64{5}}},
		{"no args", engine.Typer, "wants 1 parameter", engine.Options{}},
		{"extra args", engine.Hybrid, "wants 1 parameter", engine.Options{Args: []int64{5, 6}}},
		{"partial stream", engine.Tectorwise, "cannot stream", engine.Options{Args: []int64{5}, Partial: true, Sink: &collectSink{}}},
	} {
		out, err := engine.Run(ctx, tc.name, pl, tc.opt)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.label, err, tc.want)
		}
		if out.Result != nil || out.Partial != nil {
			t.Errorf("%s: out = %+v, want no output", tc.label, out)
		}
	}
}

// engineRunRecoversPanics: a panic inside a lowering (here: a plan
// with no root, which every backend's lowering dereferences) comes back
// from engine.Run as an error that names the engine, in every mode —
// a cached plan cannot take down the query service.
func engineRunRecoversPanics(t *testing.T) {
	db, _ := sqlDBs()
	good, err := logical.Prepare(db, "select o_custkey, count(*) from orders group by o_custkey")
	if err != nil {
		t.Fatal(err)
	}
	bad := *good
	bad.Root = nil
	for _, name := range []string{engine.Typer, engine.Tectorwise, engine.Hybrid} {
		for _, opt := range []engine.Options{{}, {Sink: &collectSink{}}, {Partial: true}} {
			_, err := engine.Run(context.Background(), name, &bad, opt)
			if err == nil || !strings.Contains(err.Error(), "internal error executing query on "+name) {
				t.Errorf("%s %+v: err=%v, want a recovered panic naming the engine", name, opt, err)
			}
		}
	}
}

// engineRunCanceled: a canceled context returns ctx.Err() from
// every engine and mode.
func engineRunCanceled(t *testing.T) {
	db, _ := sqlDBs()
	text, _ := logical.SQLText("tpch", "Q3")
	pl, err := logical.Prepare(db, text)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range []string{engine.Typer, engine.Tectorwise, engine.Hybrid} {
		for _, opt := range []engine.Options{{Workers: 4}, {Workers: 4, Sink: &collectSink{}}, {Workers: 4, Partial: true}} {
			_, err := engine.Run(ctx, name, pl, opt)
			if err != context.Canceled {
				t.Errorf("%s stream=%v partial=%v: err=%v, want context.Canceled",
					name, opt.Sink != nil, opt.Partial, err)
			}
		}
	}
}
