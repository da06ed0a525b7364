package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"paradigms"
	"paradigms/internal/logical"
	"paradigms/internal/obs"
	"paradigms/internal/proto"
	"paradigms/internal/proto/client"
	"paradigms/internal/server"
	"paradigms/internal/sqlcheck"
)

// gateSF is the scale of the databases the slow oracle runs on.
const gateSF = 0.01

// config is one benchmark run.
type config struct {
	workload *workload
	seed     int64
	seconds  float64
	trace    bool
	sf       float64
	clients  int // closed-loop clients = GOMAXPROCS = worker budget
	setups   int // set-up repetitions; setup_s is their median
	warmup   time.Duration
	outDir   string
}

// env is the system under test, set up once: both datasets, the service
// in its production configuration (metrics and query log on), the
// network front-end on a loopback listener in this process, the seeded
// schedule with its expected row counts, and the prepared statements.
type env struct {
	cfg       *config
	tpch, ssb *paradigms.DB
	svc       *server.Service
	metrics   *obs.Metrics
	handler   http.Handler
	httpSrv   *http.Server
	base      string
	qlog      *obs.QueryLog
	tmpDir    string
	items     []*item

	tpchGen, ssbGen time.Duration
	elapsed         time.Duration
}

// setup builds the environment and runs the correctness gate; the time
// it takes is the benchmark's setup_s.
func setup(cfg *config) (_ *env, err error) {
	start := time.Now()
	e := &env{cfg: cfg}
	defer func() {
		if err != nil {
			e.close()
		}
	}()

	t := time.Now()
	e.tpch = paradigms.GenerateTPCH(cfg.sf, 0)
	e.tpchGen = time.Since(t)
	t = time.Now()
	e.ssb = paradigms.GenerateSSB(cfg.sf, 0)
	e.ssbGen = time.Since(t)

	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	if e.tmpDir, err = os.MkdirTemp(cfg.outDir, "qlog-"); err != nil {
		return nil, err
	}
	if e.qlog, err = obs.OpenQueryLog(filepath.Join(e.tmpDir, "queries.ndjson"), 0); err != nil {
		return nil, err
	}
	e.metrics = obs.NewMetrics()
	e.svc = paradigms.NewService(e.tpch, e.ssb, paradigms.ServiceOptions{
		Metrics:  e.metrics,
		QueryLog: e.qlog,
		Shards:   cfg.workload.shards,
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e.handler = proto.NewServer(e.svc, nil).WithMetrics(e.metrics).Handler()
	e.httpSrv = &http.Server{Handler: e.handler}
	go e.httpSrv.Serve(ln) // returns when close() shuts the server down
	e.base = "http://" + ln.Addr().String()

	e.items = cfg.workload.schedule(cfg.seed)
	if m := cfg.workload.mode; m == sendPrepared || m == sendAlternate {
		cl := client.New(e.base, "setup")
		for i := range cfg.workload.templates {
			if _, err := cl.Prepare(context.Background(), cfg.workload.templates[i].text); err != nil {
				return nil, fmt.Errorf("prepare %s: %w", cfg.workload.templates[i].name, err)
			}
		}
	}
	if err := e.gate(); err != nil {
		return nil, fmt.Errorf("correctness gate: %w", err)
	}
	e.elapsed = time.Since(start)
	return e, nil
}

// close stops the listener and the service and removes the query log.
func (e *env) close() {
	if e.httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		e.httpSrv.Shutdown(ctx)
		cancel()
	}
	if e.svc != nil {
		e.svc.Close()
	}
	if e.qlog != nil {
		e.qlog.Close()
	}
	if e.tmpDir != "" {
		os.RemoveAll(e.tmpDir)
	}
}

// runRows executes one literal text on one engine outside the service.
func runRows(db *paradigms.DB, engine, text string, workers int) ([][]int64, error) {
	res, err := paradigms.RunContext(context.Background(), db, paradigms.Engine(engine), text, paradigms.Options{Workers: workers})
	if err != nil {
		return nil, err
	}
	return res.(*logical.Result).Rows, nil
}

// gate is the correctness check every run passes before timing: at the
// run scale all three engines must agree on every scheduled item (after
// Canon — row order without ORDER BY is undefined), which also fixes the
// row count each timed response is checked against; the first two draws
// of every template must also match the independent oracle on a small
// database, through the prepared path when the workload prepares; and a
// sharded workload's texts must route through the exchange as declared.
func (e *env) gate() error {
	w := e.cfg.workload
	smallT := paradigms.GenerateTPCH(gateSF, 0)
	smallS := paradigms.GenerateSSB(gateSF, 0)
	checked := map[*template]int{}
	seen := map[*item]bool{}
	for _, it := range e.items {
		if seen[it] {
			continue
		}
		seen[it] = true
		db, err := logical.RouteByTables(it.adhoc, e.tpch, e.ssb)
		if err != nil {
			return err
		}
		var ref [][]int64
		for _, eng := range baseEngines {
			rows, err := runRows(db, eng, it.adhoc, e.cfg.clients)
			if err != nil {
				return fmt.Errorf("%s on %s: %w", it.tmpl.name, eng, err)
			}
			rows = sqlcheck.Canon(rows)
			if ref == nil {
				ref = rows
			} else if !sqlcheck.SameRows(ref, rows) {
				return fmt.Errorf("%s %v: %s disagrees with %s at SF %g", it.tmpl.name, it.args, eng, baseEngines[0], e.cfg.sf)
			}
		}
		it.rows = int64(len(ref))

		if checked[it.tmpl] >= 2 {
			continue
		}
		checked[it.tmpl]++
		small, err := logical.RouteByTables(it.adhoc, smallT, smallS)
		if err != nil {
			return err
		}
		want, err := sqlcheck.Oracle(small, it.adhoc)
		if err != nil {
			return fmt.Errorf("oracle %s: %w", it.tmpl.name, err)
		}
		want = sqlcheck.Canon(want)
		for _, eng := range baseEngines {
			var got [][]int64
			if w.mode == sendPrepared || w.mode == sendAlternate {
				st, err := paradigms.Prepare(small, it.tmpl.text)
				if err != nil {
					return fmt.Errorf("prepare %s: %w", it.tmpl.name, err)
				}
				res, _, err := st.Exec(context.Background(), paradigms.Engine(eng), it.args, paradigms.Options{Workers: e.cfg.clients})
				if err != nil {
					return fmt.Errorf("prepared %s on %s: %w", it.tmpl.name, eng, err)
				}
				got = res.Rows
			} else if got, err = runRows(small, eng, it.adhoc, e.cfg.clients); err != nil {
				return fmt.Errorf("%s on %s: %w", it.tmpl.name, eng, err)
			}
			if !sqlcheck.SameRows(want, sqlcheck.Canon(got)) {
				return fmt.Errorf("%s %v: %s differs from the oracle", it.tmpl.name, it.args, eng)
			}
		}
		if it.tmpl.route != routeNone {
			if err := checkRoute(small, it, want); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkRoute runs one text through a standalone two-shard cluster and
// asserts it took the declared path and still matches the oracle, so the
// sharded workload cannot silently stop exercising the exchange.
func checkRoute(db *paradigms.DB, it *item, want [][]int64) error {
	cl, err := paradigms.NewCluster(db, 2)
	if err != nil {
		return err
	}
	res, err := cl.Run(context.Background(), exchangeRequest(it, "typer", runtime.GOMAXPROCS(0)))
	if err != nil {
		return fmt.Errorf("cluster run %s: %w", it.tmpl.name, err)
	}
	scattered, single, fallback := cl.Stats()
	wantScatter, wantSingle := uint64(0), uint64(0)
	if it.tmpl.route == routeScatter {
		wantScatter = 1
	} else {
		wantSingle = 1
	}
	if scattered != wantScatter || single != wantSingle || fallback != 0 {
		return fmt.Errorf("%s routed scattered=%d single=%d fallback=%d, declared %d/%d/0",
			it.tmpl.name, scattered, single, fallback, wantScatter, wantSingle)
	}
	if !sqlcheck.SameRows(want, sqlcheck.Canon(res.Rows)) {
		return fmt.Errorf("%s: sharded result differs from the oracle", it.tmpl.name)
	}
	return nil
}
