package paradigms

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"paradigms/internal/logical"
	"paradigms/internal/obs"
	"paradigms/internal/proto"
	"paradigms/internal/proto/client"
	"paradigms/internal/server"
)

const telemetryQ3 = `select l_orderkey, sum(l_extendedprice * (1 - l_discount)) as revenue,
	o_orderdate, o_shippriority
	from customer, orders, lineitem
	where c_mktsegment = 'BUILDING' and c_custkey = o_custkey and l_orderkey = o_orderkey
	and o_orderdate < '1995-03-15' and l_shipdate > '1995-03-15'
	group by l_orderkey, o_orderdate, o_shippriority
	order by revenue desc, o_orderdate, l_orderkey limit 10`

// TestAnalyzeEndToEnd runs an instrumented Q3-shaped query on every
// backend through the service and checks the collector's story is
// coherent: one stat per pipeline, estimates and observations filled
// in, and the same observed cardinalities on every engine (both
// lowerings run the one pipeline decomposition, logical.Decompose).
func TestAnalyzeEndToEnd(t *testing.T) {
	db := GenerateTPCH(0.01, 0)
	svc := NewService(db, nil, ServiceOptions{})
	defer svc.Close()
	ctx := context.Background()

	var base []obs.PipeStat
	for _, engine := range []string{"typer", "tectorwise", "hybrid"} {
		col := obs.NewCollector()
		h, err := svc.SubmitReq(ctx, server.Req{Engine: engine, Query: telemetryQ3, Collector: col})
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		if _, err := h.Wait(ctx); err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		pipes := col.Pipes()
		if len(pipes) != 3 {
			t.Fatalf("%s: %d pipes, want 3 (customer build, orders build, lineitem final)", engine, len(pipes))
		}
		for _, p := range pipes {
			if p.Table == "" || p.RowsIn <= 0 || p.EstRows <= 0 || p.Nanos <= 0 {
				t.Errorf("%s: pipe %d incomplete: %+v", engine, p.Index, p)
			}
			if p.Engine != "t" && p.Engine != "v" {
				t.Errorf("%s: pipe %d engine tag %q", engine, p.Index, p.Engine)
			}
		}
		if !pipes[0].Build || !pipes[1].Build || pipes[2].Build {
			t.Errorf("%s: roles wrong: %+v", engine, pipes)
		}
		if pipes[0].HTRows <= 0 || pipes[1].HTRows <= 0 {
			t.Errorf("%s: build pipes missing hash-table sizes", engine)
		}
		if pipes[0].KeyBits <= 0 || pipes[1].KeyBits <= 0 || pipes[2].KeyBits != 0 {
			t.Errorf("%s: key filter sizes %d/%d/%d, want both builds filtered and none on the final pipe",
				engine, pipes[0].KeyBits, pipes[1].KeyBits, pipes[2].KeyBits)
		}
		if base == nil {
			base = pipes
			continue
		}
		for i := range pipes {
			if pipes[i].RowsOut != base[i].RowsOut || pipes[i].HTRows != base[i].HTRows || pipes[i].KeyBits != base[i].KeyBits {
				t.Errorf("%s: pipe %d observed %d rows / %d ht / %d key bits, typer observed %d / %d / %d",
					engine, i, pipes[i].RowsOut, pipes[i].HTRows, pipes[i].KeyBits, base[i].RowsOut, base[i].HTRows, base[i].KeyBits)
			}
		}
	}
}

// TestAnalyzeOverWire checks the /v1/query analyze option: the stream
// carries an analyze frame whose pipeline stats decode strictly and
// describe the query that ran.
func TestAnalyzeOverWire(t *testing.T) {
	db := GenerateTPCH(0.01, 0)
	svc := NewService(db, nil, ServiceOptions{})
	defer svc.Close()
	ts := httptest.NewServer(proto.NewServer(svc, nil).Handler())
	defer ts.Close()
	cl := client.New(ts.URL, "")

	rows, err := cl.QueryAnalyze(context.Background(), "hybrid", telemetryQ3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rows.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("got %d rows, want 10", len(got))
	}
	pipes := rows.Pipes()
	if len(pipes) != 3 {
		t.Fatalf("analyze frame carried %d pipes, want 3", len(pipes))
	}
	if pipes[2].Table != "lineitem" || pipes[2].Build {
		t.Errorf("final pipe wrong: %+v", pipes[2])
	}
	if !strings.HasPrefix(rows.Engine(), "hybrid[") {
		t.Errorf("end frame engine %q not hybrid-decorated", rows.Engine())
	}
	// Un-analyzed queries must not regress: no analyze frame.
	rows, err = cl.Query(context.Background(), "typer", telemetryQ3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rows.All(); err != nil {
		t.Fatal(err)
	}
	if rows.Pipes() != nil {
		t.Error("plain query unexpectedly carried an analyze frame")
	}
}

// TestStreamingHybridDecoration is the satellite regression test: the
// streaming end frame must report the hybrid per-pipeline assignment
// ("hybrid[...]") on both the ad-hoc and prepared paths, while the
// service's per-engine stats count every assignment variant under the
// single "hybrid" key.
func TestStreamingHybridDecoration(t *testing.T) {
	db := GenerateTPCH(0.01, 0)
	svc := NewService(db, nil, ServiceOptions{})
	defer svc.Close()
	ts := httptest.NewServer(proto.NewServer(svc, nil).Handler())
	defer ts.Close()
	cl := client.New(ts.URL, "")
	ctx := context.Background()

	adhoc, err := cl.Query(ctx, "hybrid", telemetryQ3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := adhoc.All(); err != nil {
		t.Fatal(err)
	}
	if eng := adhoc.Engine(); !strings.HasPrefix(eng, "hybrid[") || !strings.HasSuffix(eng, "]") {
		t.Errorf("ad-hoc streamed end frame engine %q, want hybrid[...]", eng)
	}

	prep, err := cl.QueryPrepared(ctx, "hybrid", telemetryQ3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prep.All(); err != nil {
		t.Fatal(err)
	}
	if eng := prep.Engine(); !strings.HasPrefix(eng, "hybrid[") || !strings.HasSuffix(eng, "]") {
		t.Errorf("prepared streamed end frame engine %q, want hybrid[...]", eng)
	}

	st := svc.Stats()
	if n := st.PerEngine["hybrid"]; n != 2 {
		t.Errorf("PerEngine[hybrid] = %d, want 2 (decoration must strip for attribution): %v", n, st.PerEngine)
	}
	for k := range st.PerEngine {
		if strings.ContainsRune(k, '[') {
			t.Errorf("decorated engine key %q leaked into PerEngine", k)
		}
	}
}

// TestQueryLogReconcile wires a query log + metrics registry into the
// service, runs materialized and streamed queries, and checks every
// NDJSON record parses and reconciles with what ran: result
// cardinality, engine, plan shape, and per-pipeline stats.
func TestQueryLogReconcile(t *testing.T) {
	db := GenerateTPCH(0.01, 0)
	path := filepath.Join(t.TempDir(), "queries.ndjson")
	ql, err := obs.OpenQueryLog(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	metrics := obs.NewMetrics()
	svc := NewService(db, nil, ServiceOptions{
		QueryLog: ql,
		Metrics:  metrics,
	})
	ts := httptest.NewServer(proto.NewServer(svc, nil).WithMetrics(metrics).Handler())
	cl := client.New(ts.URL, "logged")
	ctx := context.Background()

	// A projection query: the final pipeline's observed output is
	// exactly the result cardinality, so the log reconciles row counts.
	projection := `select l_orderkey, l_quantity from lineitem where l_quantity < 3`
	res, err := svc.Do(ctx, "typer", projection)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := int64(len(res.(*logical.Result).Rows))
	if wantRows == 0 {
		t.Fatal("projection returned no rows; test needs a non-empty result")
	}
	streamed, err := cl.Query(ctx, "tectorwise", projection)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := streamed.All(); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	svc.Close()
	if err := ql.Close(); err != nil {
		t.Fatal(err)
	}

	recs := readQueryLog(t, path)
	if len(recs) != 2 {
		t.Fatalf("query log has %d records, want 2", len(recs))
	}
	for _, rec := range recs {
		if rec.Rows != wantRows {
			t.Errorf("record rows %d, want %d (engine %s)", rec.Rows, wantRows, rec.Engine)
		}
		if rec.SQL == "" || rec.Time == "" || rec.PlanShape == "" || rec.CatalogVersion == 0 {
			t.Errorf("record missing identity fields: %+v", rec)
		}
		if len(rec.Pipes) != 1 {
			t.Errorf("record has %d pipes, want 1: %+v", len(rec.Pipes), rec.Pipes)
			continue
		}
		if rec.Pipes[0].RowsOut != wantRows {
			t.Errorf("final pipe observed %d rows, result has %d", rec.Pipes[0].RowsOut, wantRows)
		}
		if rec.Pipes[0].Table != "lineitem" {
			t.Errorf("final pipe table %q, want lineitem", rec.Pipes[0].Table)
		}
	}
	if recs[0].PlanShape != recs[1].PlanShape {
		t.Errorf("same query hashed to different shapes: %q vs %q", recs[0].PlanShape, recs[1].PlanShape)
	}
	if recs[0].Used != "typer" || recs[1].Used != "tectorwise" {
		t.Errorf("engines misattributed: %q, %q", recs[0].Used, recs[1].Used)
	}

	// The metrics registry observed both executions.
	var b strings.Builder
	if _, err := metrics.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`engine="typer"`, `engine="tectorwise"`, `paradigms_pipeline_seconds`} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("metrics missing %s:\n%s", want, b.String())
		}
	}
}

// readQueryLog parses every record of an NDJSON query log.
func readQueryLog(t *testing.T, path string) []obs.QueryRecord {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var recs []obs.QueryRecord
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var rec obs.QueryRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("unparseable query log line: %v\n%s", err, sc.Text())
		}
		recs = append(recs, rec)
	}
	return recs
}

// TestQueryLogQueueWait: admission wait reaches the record. With one
// execution slot, queries submitted together run one after another, so
// all but the first wait in the queue — and the log says for how long.
func TestQueryLogQueueWait(t *testing.T) {
	db := GenerateTPCH(0.01, 0)
	path := filepath.Join(t.TempDir(), "queries.ndjson")
	ql, err := obs.OpenQueryLog(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService(db, nil, ServiceOptions{QueryLog: ql, MaxConcurrent: 1})
	const n = 4
	var handles []*server.Handle
	for i := 0; i < n; i++ {
		h, err := svc.Submit(context.Background(), "typer", telemetryQ3)
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	var longest float64
	for _, h := range handles {
		if _, err := h.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		longest = max(longest, float64(h.QueueWait())/1e6)
	}
	svc.Close()
	if err := ql.Close(); err != nil {
		t.Fatal(err)
	}

	recs := readQueryLog(t, path)
	if len(recs) != n {
		t.Fatalf("query log has %d records, want %d", len(recs), n)
	}
	var logged float64
	for _, rec := range recs {
		if rec.QueueMs < 0 || rec.QueueMs > rec.LatencyMs {
			t.Errorf("queue_ms %v outside [0, latency_ms %v]", rec.QueueMs, rec.LatencyMs)
		}
		logged = max(logged, rec.QueueMs)
	}
	if logged <= 0 || logged != longest {
		t.Errorf("longest logged queue wait %v ms, the handles say %v ms (want equal and non-zero)", logged, longest)
	}
}
