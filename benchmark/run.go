package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// metricDef names one metric and its unit. BENCHMARK.json lists the same
// names; the smoke test holds the two together.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the service sees, per workload. Latency is
// client-observed, request sent to last row consumed, tracing off.
var endToEnd = []metricDef{
	{"qps", "1/s"},
	{"p50_ms", "ms"},
	{"p95_ms", "ms"},
	{"typer_p50_ms", "ms"},
	{"tectorwise_p50_ms", "ms"},
	{"hybrid_p50_ms", "ms"},
	{"rows_per_s", "rows/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer is the attribution of a traced run, named <module>.<metric>.
// Timings are medians.
var perLayer = []metricDef{
	{"sql.parse_us", "us"}, {"sql.bind_us", "us"}, {"logical.plan_us", "us"},
	{"compiled.lower_us", "us"}, {"logical.lower_vec_us", "us"},
	{"prepcache.hit_us", "us"}, {"prepcache.miss_us", "us"}, {"prepcache.hit_share", "share"},
	{"prepcache.prepared_share", "share"}, {"prepcache.evictions", "count"}, {"logical.bind_args_us", "us"},
	{"prepcache.auto_p50_ms", "ms"}, {"prepcache.auto_regret", "ratio"}, {"prepcache.replans", "count"},
	{"hybrid.pipes_fused_share", "share"},
	{"compiled.exec_ms", "ms"}, {"logical.exec_ms", "ms"}, {"hybrid.exec_ms", "ms"},
	{"compiled.pipe_build_ms", "ms"}, {"compiled.pipe_final_ms", "ms"},
	{"logical.pipe_build_ms", "ms"}, {"logical.pipe_final_ms", "ms"},
	{"pipe.rows_in_per_query", "rows"}, {"hashtable.rows_built_per_query", "rows"}, {"pipe.est_drift_max", "ratio"},
	{"logical.finalize_ms", "ms"}, {"logical.merge_partials_ms", "ms"},
	{"compiled.stream_exec_ms", "ms"}, {"logical.stream_exec_ms", "ms"},
	{"proto.wire_overhead_us", "us"}, {"proto.first_row_ms", "ms"}, {"proto.bytes_per_row", "B/row"},
	{"proto.rows_per_frame", "rows"}, {"client.p99_ms", "ms"}, {"client.fail_share", "share"},
	{"server.submit_overhead_us", "us"}, {"server.queue_wait_us", "us"}, {"server.morsels_per_query", "count"},
	{"server.rejected", "count"}, {"server.canceled", "count"}, {"server.queued_high_water", "count"},
	{"exchange.partition_s", "s"}, {"exchange.run_ms", "ms"}, {"exchange.single_ms", "ms"},
	{"exchange.overhead_ratio", "ratio"}, {"exchange.shard_partial_ms", "ms"}, {"exchange.merge_ms", "ms"},
	{"exchange.shard_skew", "ratio"}, {"exchange.scattered", "count"}, {"exchange.single_shard", "count"},
	{"exchange.fallback", "count"},
	{"obs.collector_overhead_ratio", "ratio"}, {"obs.qlog_write_us", "us"}, {"obs.qlog_bytes_per_query", "B"},
	{"obs.metricsz_render_us", "us"},
	{"tpch.generate_s", "s"}, {"ssb.generate_s", "s"},
	{"go.gc_cycles", "count"}, {"go.gc_pause_ms_total", "ms"}, {"go.alloc_kb_per_query", "KB"}, {"go.heap_mb", "MB"},
	{"trace.overhead_ratio", "ratio"}, {"trace.queries", "count"}, {"trace.self_sum_ratio", "ratio"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// newResult emits every metric of defs exactly once, 0 where a workload
// does not exercise the layer.
func newResult(defs []metricDef, values map[string]float64, attempted, failed int) result {
	r := result{Correct: failed == 0, Attempted: max(attempted, 1), Failed: failed, Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		r.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	return r
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// runTimed is a run with tracing off: set-up several times (setup_s is
// the median), warm-up, then the closed-loop window the end-to-end
// metrics come from.
func runTimed(cfg *config) (result, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(cfg.clients))
	var e *env
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		if e != nil {
			e.close()
			e = nil
			runtime.GC()
		}
		var err error
		if e, err = setup(cfg); err != nil {
			return result{}, err
		}
		setups = append(setups, e.elapsed.Seconds())
	}
	defer e.close()
	clients := e.newClients(false)
	defer closeClients(clients)
	w := e.timedWindow(clients, time.Duration(cfg.seconds*float64(time.Second)), runtime.GC)

	ok := float64(len(w.samples) - w.failed())
	var rows int64
	for _, s := range w.samples {
		if !s.failed {
			rows += s.rows
		}
	}
	all := w.latencies(nil)
	v := map[string]float64{
		"qps":         ok / w.elapsed.Seconds(),
		"p50_ms":      median(all),
		"p95_ms":      percentile(all, 0.95),
		"rows_per_s":  float64(rows) / w.elapsed.Seconds(),
		"setup_s":     median(setups),
		"peak_rss_mb": peakRSSMB(),
	}
	for _, eng := range baseEngines {
		v[eng+"_p50_ms"] = median(w.latencies(byEngine(eng)))
	}
	return newResult(endToEnd, v, len(w.samples), w.failed()), nil
}

// runTraced is the run the per-layer metrics come from: one set-up, a
// shorter closed-loop window with wire counters on, the harness-driven
// traced replay, the wire replay, and the single-layer probes. The
// spans are written to <out>/trace_<workload>.json when the run ends.
func runTraced(cfg *config) (result, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(cfg.clients))
	e, err := setup(cfg)
	if err != nil {
		return result{}, err
	}
	defer e.close()
	p := newProber(e)
	p.m["tpch.generate_s"], p.m["ssb.generate_s"] = e.tpchGen.Seconds(), e.ssbGen.Seconds()
	share := func(f float64) time.Duration { return time.Duration(cfg.seconds * f * float64(time.Second)) }

	clients := e.newClients(true)
	var mem0, mem1 runtime.MemStats
	st0 := e.svc.Stats()
	w := e.timedWindow(clients, share(0.25), func() {
		runtime.GC()
		for _, c := range clients {
			c.wire.bytes.Store(0)
			c.wire.frames.Store(0)
		}
		st0 = e.svc.Stats()
		runtime.ReadMemStats(&mem0)
	})
	runtime.ReadMemStats(&mem1)
	st1 := e.svc.Stats()
	closeClients(clients)
	p.attempted, p.failed = len(w.samples), w.failed()
	p.windowMetrics(w, clients)

	served := float64(st1.Served - st0.Served)
	if served > 0 {
		p.m["server.morsels_per_query"] = float64(st1.MorselsDispatched-st0.MorselsDispatched) / served
		p.m["go.alloc_kb_per_query"] = float64(mem1.TotalAlloc-mem0.TotalAlloc) / 1024 / served
	}
	if lookups := float64(st1.PlanCacheHits - st0.PlanCacheHits + st1.PlanCacheMisses - st0.PlanCacheMisses); lookups > 0 {
		p.m["prepcache.hit_share"] = float64(st1.PlanCacheHits-st0.PlanCacheHits) / lookups
	}
	p.m["prepcache.evictions"] = float64(st1.PlanCacheEvictions)
	p.m["server.rejected"], p.m["server.canceled"] = float64(st1.Rejected), float64(st1.Canceled)
	p.m["server.queued_high_water"] = float64(st1.QueuedHighWater)
	p.m["go.gc_cycles"] = float64(mem1.NumGC - mem0.NumGC)
	p.m["go.gc_pause_ms_total"] = float64(mem1.PauseTotalNs-mem0.PauseTotalNs) / 1e6
	p.m["go.heap_mb"] = float64(mem1.HeapInuse) / (1 << 20)
	if done := float64(st1.Served + st1.Failed + st1.Canceled); done > 0 {
		p.m["obs.qlog_bytes_per_query"] = fileSize(filepath.Join(e.tmpDir, "queries.ndjson")) / done
	}
	for _, st := range e.statements() {
		p.m["prepcache.replans"] += float64(st.Replans())
	}

	if err := p.partition(); err != nil {
		return result{}, err
	}
	p.replay(share(0.35), 20)
	p.spanMetrics()
	p.wireReplay(share(0.2), 10)
	p.probeStream(share(0.04))
	p.probePlanCache()
	p.probeSubmit(share(0.06))
	if err := p.probeObs(share(0.05)); err != nil {
		return result{}, err
	}
	p.m["client.fail_share"] = float64(p.failed) / float64(max(p.attempted, 1))
	if err := writeTrace(filepath.Join(cfg.outDir, "trace_"+cfg.workload.name+".json"), p.tr.spans); err != nil {
		return result{}, err
	}
	return newResult(perLayer, p.m, p.attempted, p.failed), nil
}

// windowMetrics derives the result-path and routing metrics from the
// traced run's closed-loop window.
func (p *prober) windowMetrics(w window, clients []*loopClient) {
	var over, first []float64
	var rows, bytes, frames, fused, pipes int64
	n, prepared := 0, 0
	for _, s := range w.samples {
		if s.failed {
			continue
		}
		n++
		if s.prepared {
			prepared++
		}
		over = append(over, us(s.lat-s.server))
		first = append(first, ms(s.first))
		rows += s.rows
		if s.engine == "hybrid" {
			if i := strings.IndexByte(s.used, '['); i >= 0 {
				fused += int64(strings.Count(s.used[i:], "t"))
				pipes += int64(strings.Count(s.used[i:], ",") + 1)
			}
		}
	}
	for _, c := range clients {
		bytes += c.wire.bytes.Load()
		frames += c.wire.frames.Load()
	}
	p.m["prepcache.prepared_share"] = float64(prepared) / float64(max(n, 1))
	p.m["proto.wire_overhead_us"] = median(over)
	p.m["proto.first_row_ms"] = median(first)
	p.m["client.p99_ms"] = percentile(w.latencies(nil), 0.99)
	if rows > 0 {
		p.m["proto.bytes_per_row"] = float64(bytes) / float64(rows)
	}
	// Every response carries one cols and one end frame besides its rows frames.
	if rf := frames - 2*int64(n); rf > 0 {
		p.m["proto.rows_per_frame"] = float64(rows) / float64(rf)
	}
	if pipes > 0 {
		p.m["hybrid.pipes_fused_share"] = float64(fused) / float64(pipes)
	}
	if auto := w.latencies(byEngine("auto")); len(auto) > 0 {
		best := 0.0
		for _, eng := range baseEngines {
			if m := median(w.latencies(byEngine(eng))); m > 0 && (best == 0 || m < best) {
				best = m
			}
		}
		p.m["prepcache.auto_p50_ms"] = median(auto)
		if best > 0 {
			p.m["prepcache.auto_regret"] = median(auto) / best
		}
	}
}

// spanMetrics turns the traced replay's spans and pipeline stats into
// the per-layer medians, and checks the attribution adds up.
func (p *prober) spanMetrics() {
	spans := p.tr.spans
	for name, key := range map[string]string{
		"sql.parse": "sql.parse_us", "sql.bind": "sql.bind_us", "logical.plan": "logical.plan_us",
		"compiled.lower": "compiled.lower_us", "logical.lower_vec": "logical.lower_vec_us",
		"logical.bind_args": "logical.bind_args_us",
	} {
		p.m[key] = median(durations(spans, name)) * 1000
	}
	for name, key := range map[string]string{
		"compiled.exec": "compiled.exec_ms", "logical.exec": "logical.exec_ms", "hybrid.exec": "hybrid.exec_ms",
		"logical.finalize": "logical.finalize_ms", "logical.merge_partials": "logical.merge_partials_ms",
		"exchange.run": "exchange.run_ms", "exchange.single": "exchange.single_ms",
	} {
		p.m[key] = median(durations(spans, name))
	}

	// Per traced query: pipeline wall time by backend and role, rows read,
	// rows built into hash tables, and the worst estimate drift.
	sums := map[string][]float64{}
	var rowsIn, htRows, drift float64
	for _, pipes := range p.pipes {
		q := map[string]float64{}
		for _, ps := range pipes {
			q[pipeName(ps)] += float64(ps.Nanos) / 1e6
			rowsIn += float64(ps.RowsIn)
			htRows += float64(ps.HTRows)
			est, got := ps.EstRows+1, float64(ps.RowsOut)+1
			drift = max(drift, est/got, got/est)
		}
		// A backend that ran any pipeline of the query also counts with 0
		// for the role it did not run, so a scan's build time reads 0.
		for _, backend := range []string{"compiled.pipe_", "logical.pipe_"} {
			_, build := q[backend+"build"]
			_, final := q[backend+"final"]
			if build || final {
				sums[backend+"build_ms"] = append(sums[backend+"build_ms"], q[backend+"build"])
				sums[backend+"final_ms"] = append(sums[backend+"final_ms"], q[backend+"final"])
			}
		}
	}
	for key, xs := range sums {
		p.m[key] = median(xs)
	}
	if n := float64(len(p.pipes)); n > 0 {
		p.m["pipe.rows_in_per_query"] = rowsIn / n
		p.m["hashtable.rows_built_per_query"] = htRows / n
	}
	p.m["pipe.est_drift_max"] = drift

	if len(p.clusters) > 0 {
		// The slowest shard is the one on the blocking path.
		var slow []float64
		for _, s := range spans {
			if s.Name == "exchange.shard_partial" && !s.OffPath {
				slow = append(slow, float64(s.dur())/1e6)
			}
		}
		p.m["exchange.shard_partial_ms"] = median(slow)
		p.m["exchange.merge_ms"] = median(p.gathers)
		if single := p.m["exchange.single_ms"]; single > 0 {
			p.m["exchange.overhead_ratio"] = p.m["exchange.run_ms"] / single
		}
		p.m["exchange.shard_skew"] = median(p.skews)
		for _, cl := range p.clusters {
			sc, si, fb := cl.Stats()
			p.m["exchange.scattered"] += float64(sc)
			p.m["exchange.single_shard"] += float64(si)
			p.m["exchange.fallback"] += float64(fb)
		}
	}

	byName, total := selfByName(spans, "query")
	if total > 0 {
		layers := int64(0)
		for name, self := range byName {
			if name != "query" {
				layers += self
			}
		}
		p.m["trace.self_sum_ratio"] = float64(layers) / float64(total)
	}
	fmt.Fprintf(logw, "benchmark: traced replay: %d queries, self time by layer (share of query span):\n", int(p.m["trace.queries"]))
	for _, name := range sortedKeys(byName) {
		fmt.Fprintf(logw, "  %-26s %6.2f%%\n", name, 100*float64(byName[name])/float64(max(total, 1)))
	}
}
