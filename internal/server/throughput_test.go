package server_test

// End-to-end tests of the concurrent query service against the real
// engines: correctness under concurrency (every result checked against
// the internal/queries oracles) and closed-loop throughput scaling with
// client count. This file is the repo's inter-query counterpart of the
// root integration test.

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"paradigms"
	"paradigms/internal/logical"
	"paradigms/internal/obs"
	"paradigms/internal/server"
	"paradigms/internal/sqlcheck"
)

var (
	dbOnce   sync.Once
	tpchDB   *paradigms.DB
	ssbDB    *paradigms.DB
	workload []workItem
)

// workItem is one canonical benchmark text with the rows its
// hand-written reference oracle computes.
type workItem struct {
	name, text string
	want       [][]int64
}

// testDBs generates the databases and the workload once: a mixed TPC-H
// + SSB subset cheap enough to run many hundreds of times under -race.
// Q3 and Q5 (join-heavy) ride along so the service exercises hash
// builds and probes under concurrency.
func testDBs() (*paradigms.DB, *paradigms.DB) {
	dbOnce.Do(func() {
		tpchDB = paradigms.GenerateTPCH(0.01, 0)
		ssbDB = paradigms.GenerateSSB(0.01, 0)
		for _, q := range []struct {
			db   *paradigms.DB
			name string
		}{{tpchDB, "Q6"}, {tpchDB, "Q3"}, {tpchDB, "Q5"}, {ssbDB, "Q1.1"}, {ssbDB, "Q2.1"}} {
			text, ok := logical.SQLText(q.db.Name, q.name)
			if !ok {
				panic("no canonical SQL for " + q.name)
			}
			workload = append(workload, workItem{q.name, text, sqlcheck.RefRows(q.db, q.name)})
		}
	})
	return tpchDB, ssbDB
}

// doChecked runs one workload item through the service and compares
// the rows with the oracle's.
func doChecked(svc *server.Service, eng paradigms.Engine, it workItem) error {
	res, err := svc.Do(context.Background(), string(eng), it.text)
	if err != nil {
		return fmt.Errorf("%s/%s: %w", eng, it.name, err)
	}
	if got := res.(*logical.Result).Rows; !sqlcheck.SameRows(got, it.want) {
		return fmt.Errorf("%s/%s: result differs from the reference oracle", eng, it.name)
	}
	return nil
}

// runClosedLoop drives total queries through svc with the given number of
// closed-loop clients (each waits for its result before submitting the
// next), checking every result, and returns the wall-clock duration.
// Engines rotate per query when more than one is given.
func runClosedLoop(t *testing.T, svc *server.Service, engines []paradigms.Engine, clients, total int) time.Duration {
	t.Helper()
	var next int64
	var mu sync.Mutex
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next >= int64(total) {
			return 0, false
		}
		i := int(next)
		next++
		return i, true
	}

	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := take()
				if !ok {
					return
				}
				if err := doChecked(svc, engines[i%len(engines)], workload[i%len(workload)]); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	return time.Since(start)
}

// TestConcurrentQueriesValidated floods the service from 16 clients with
// both engines interleaved; every one of the results is checked against
// the reference oracles, and the stats account for all of them.
func TestConcurrentQueriesValidated(t *testing.T) {
	tpch, ssb := testDBs()
	svc := paradigms.NewService(tpch, ssb, paradigms.ServiceOptions{
		WorkerBudget:  4,
		MaxConcurrent: 8,
	})
	const total = 128
	runClosedLoop(t, svc,
		[]paradigms.Engine{paradigms.Typer, paradigms.Tectorwise}, 16, total)
	svc.Close()
	st := svc.Stats()
	if st.Served != total || st.Failed != 0 || st.Canceled != 0 {
		t.Fatalf("stats: %+v, want %d served and no failures", st, total)
	}
	if st.PerEngine["typer"] == 0 || st.PerEngine["tectorwise"] == 0 {
		t.Fatalf("both engines should have served queries: %v", st.PerEngine)
	}
	if st.MorselsDispatched == 0 {
		t.Error("morsel counter did not advance")
	}
}

// TestCancelMidQueryDrains submits real queries and cancels them
// mid-flight; the service must come back promptly with ctx errors and no
// result corruption afterwards.
func TestCancelMidQueryDrains(t *testing.T) {
	tpch, ssb := testDBs()
	svc := paradigms.NewService(tpch, ssb, paradigms.ServiceOptions{WorkerBudget: 2})
	for i := 0; i < 8; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		h, err := svc.Submit(ctx, string(paradigms.Typer), workload[1].text)
		if err != nil {
			t.Fatal(err)
		}
		cancel()
		if _, err := h.Wait(context.Background()); err == nil {
			// A fast query may legitimately finish before the cancel
			// lands; only a hang would be a bug.
			continue
		}
	}
	// The service must still produce correct results.
	if err := doChecked(svc, paradigms.Tectorwise, workload[4]); err != nil {
		t.Fatalf("service broken after cancellations: %v", err)
	}
	svc.Close()
}

// TestThroughputScalesWithClients is the paper-extension experiment this
// package exists for: with a fixed worker budget, 16 closed-loop clients
// must outperform 1 client on both engines. A lone client burns the whole
// budget on intra-query parallelism (fork/join + barrier overhead per
// query); 16 concurrent queries each run morsel loops with their share
// and the budget is spent on inter-query parallelism instead. A query
// runs on no more workers than its largest scan has morsels, and every
// SF 0.01 table fits in one default morsel, so the services run at a
// morsel size that splits each workload query's largest scan across
// the whole budget — and the test first checks, from the pipeline
// telemetry, that a lone query really ran on all of it.
func TestThroughputScalesWithClients(t *testing.T) {
	tpch, ssb := testDBs()
	const total, budget = 96, 8
	morsel := min(tpch.Rel("lineitem").Rows(), ssb.Rel("lineorder").Rows()) / budget
	opts := paradigms.ServiceOptions{
		WorkerBudget:  budget,
		MaxConcurrent: 16,
		MorselSize:    morsel,
	}
	for _, engine := range []paradigms.Engine{paradigms.Typer, paradigms.Tectorwise} {
		svc := paradigms.NewService(tpch, ssb, opts)
		for _, it := range workload {
			col := obs.NewCollector()
			if _, err := svc.DoReq(context.Background(), server.Req{Engine: string(engine), Query: it.text, Collector: col}); err != nil {
				t.Fatalf("%s/%s: %v", engine, it.name, err)
			}
			for _, p := range col.Pipes() {
				if p.Workers != budget {
					t.Errorf("%s/%s: pipeline %d (%s) of a lone query ran on %d workers, want the budget of %d",
						engine, it.name, p.Index, p.Table, p.Workers, budget)
				}
			}
		}
		svc.Close()

		qps := func(clients int) float64 {
			svc := paradigms.NewService(tpch, ssb, opts)
			defer svc.Close()
			d := runClosedLoop(t, svc, []paradigms.Engine{engine}, clients, total)
			return float64(total) / d.Seconds()
		}
		qps(4) // warm-up

		// A single measurement on a loaded CI box can be noisy; the
		// scaling claim must hold on the best of a few attempts.
		ok := false
		var q1, q16 float64
		for attempt := 0; attempt < 3 && !ok; attempt++ {
			q1, q16 = qps(1), qps(16)
			ok = q16 > q1
		}
		t.Logf("%s: %.1f q/s at 1 client, %.1f q/s at 16 clients", engine, q1, q16)
		if !ok {
			t.Errorf("%s: 16 clients (%.1f q/s) not faster than 1 client (%.1f q/s)",
				engine, q16, q1)
		}
	}
}
