// Command serve runs the query service behind its network front-end
// (internal/proto) and drives it with a closed-loop multi-tenant
// workload over localhost HTTP: every query goes through the wire —
// JSON request in, NDJSON-framed streaming result out — through
// per-tenant deficit-round-robin admission, exactly the path a remote
// client takes.
//
// Usage:
//
//	serve -sf 0.1 -clients 16 -duration 10s
//	serve -tenants heavy:12:heavy,light:4:light -maxconc 4
//	serve -fairbench                # solo-vs-contended fairness experiment
//	serve -serveonly -listen 127.0.0.1:8080
//	serve -prepared -engine mixed
//
// -tenants is a comma-separated list of name:clients:workload specs;
// workload "heavy" runs the join-heavy Q3-class canonical SQL, "light"
// the Q6-class point scans, "mixed" all canonical benchmark texts.
//
// -fairbench runs the two-phase fairness experiment behind
// EXPERIMENTS.md: (1) the light tenant alone (its solo p99 baseline),
// (2) the same tenant with a heavy tenant flooding Q3-class scans next
// to it. Deficit round robin must keep the light tenant's contended
// p99 within a small multiple of solo.
//
// -serveonly skips the driver and serves until SIGINT/SIGTERM —
// quickstart:
//
//	curl -s http://127.0.0.1:8080/v1/query -d '{"sql":"select count(*) as n from lineitem"}'
//	curl -s http://127.0.0.1:8080/statsz
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"paradigms"
	"paradigms/internal/logical"
	"paradigms/internal/obs"
	"paradigms/internal/proto"
	"paradigms/internal/proto/client"
	"paradigms/internal/server"
)

// prepSpec is one parameterized template of the -prepared workload:
// the SQL text (with `?` placeholders) plus an argument sampler.
type prepSpec struct {
	text string
	args func(r *rand.Rand) []string
}

// preparedWorkload mixes the two regimes the paper separates:
// computation-heavy scans (Q6/Q1.1 shapes, where the compiled engine
// wins) and join/probe-heavy aggregations (Q3 shape, where the
// vectorized engine wins) — so the hybrid behind auto has pipelines of
// both kinds to assign.
func preparedWorkload() []prepSpec {
	date := func(y, m, d int) string { return fmt.Sprintf("%04d-%02d-%02d", y, m, d) }
	return []prepSpec{
		{
			text: `select sum(l_extendedprice * l_discount) as revenue from lineitem
				where l_shipdate >= ? and l_shipdate < ? and l_discount between ? and ? and l_quantity < ?`,
			args: func(r *rand.Rand) []string {
				y := 1993 + r.Intn(4)
				lo := 2 + r.Intn(6)
				return []string{date(y, 1, 1), date(y+1, 1, 1),
					fmt.Sprintf("0.0%d", lo), fmt.Sprintf("0.0%d", lo+2),
					fmt.Sprintf("%d", 20+r.Intn(15))}
			},
		},
		{
			text: `select l_orderkey, sum(l_extendedprice * (1 - l_discount)) as revenue,
				o_orderdate, o_shippriority
				from customer, orders, lineitem
				where c_mktsegment = 'BUILDING' and c_custkey = o_custkey and l_orderkey = o_orderkey
				and o_orderdate < ? and l_shipdate > ?
				group by l_orderkey, o_orderdate, o_shippriority
				order by revenue desc, o_orderdate, l_orderkey limit 10`,
			args: func(r *rand.Rand) []string {
				d := date(1995, 1+r.Intn(6), 1+r.Intn(28))
				return []string{d, d}
			},
		},
		{
			text: `select sum(lo_extendedprice * lo_discount) as revenue from lineorder, date
				where lo_orderdate = d_datekey and d_year = ? and lo_discount between ? and ? and lo_quantity < ?`,
			args: func(r *rand.Rand) []string {
				lo := 1 + r.Intn(3)
				return []string{fmt.Sprintf("%d", 1992+r.Intn(6)),
					fmt.Sprintf("%d", lo), fmt.Sprintf("%d", lo+2),
					fmt.Sprintf("%d", 20+r.Intn(15))}
			},
		},
	}
}

// tenantSpec is one tenant of the closed-loop driver.
type tenantSpec struct {
	name     string
	clients  int
	workload string // "heavy" | "light" | "mixed"
}

func parseTenants(s string) ([]tenantSpec, error) {
	var out []tenantSpec
	for _, part := range strings.Split(s, ",") {
		f := strings.Split(strings.TrimSpace(part), ":")
		if len(f) != 3 {
			return nil, fmt.Errorf("bad tenant spec %q (want name:clients:heavy|light|mixed)", part)
		}
		n, err := strconv.Atoi(f[1])
		if err != nil || n < 0 {
			return nil, fmt.Errorf("bad client count in %q", part)
		}
		switch f[2] {
		case "heavy", "light", "mixed":
		default:
			return nil, fmt.Errorf("bad workload %q in %q", f[2], part)
		}
		out = append(out, tenantSpec{name: f[0], clients: n, workload: f[2]})
	}
	return out, nil
}

// workloadTexts returns the canonical SQL texts of one workload class.
// "heavy" is the join-heavy grouped-aggregate class (Q3/Q18 shapes);
// "light" the short selective scans (Q6/Q1.1 shapes); "mixed" every
// canonical benchmark text of both datasets.
func workloadTexts(class string) []string {
	pick := func(dataset string, names ...string) []string {
		var out []string
		for _, n := range names {
			if text, ok := logical.SQLText(dataset, n); ok {
				out = append(out, text)
			}
		}
		return out
	}
	switch class {
	case "heavy":
		return append(pick("tpch", "Q3", "Q18"), pick("ssb", "Q2.1")...)
	case "light":
		return append(pick("tpch", "Q6"), pick("ssb", "Q1.1")...)
	default:
		var out []string
		for _, ds := range []string{"tpch", "ssb"} {
			for _, n := range logical.SQLQueries(ds) {
				text, _ := logical.SQLText(ds, n)
				out = append(out, text)
			}
		}
		return out
	}
}

func main() {
	sf := flag.Float64("sf", 0.1, "TPC-H scale factor")
	ssbsf := flag.Float64("ssbsf", 0.1, "SSB scale factor")
	listen := flag.String("listen", "127.0.0.1:0", "listen address of the HTTP front-end")
	serveOnly := flag.Bool("serveonly", false, "serve until SIGINT instead of running the driver")
	clients := flag.Int("clients", 16, "closed-loop client count (single-tenant mode)")
	duration := flag.Duration("duration", 10*time.Second, "run length (per phase in -fairbench)")
	engine := flag.String("engine", "mixed", "typer | tectorwise | mixed")
	tenants := flag.String("tenants", "", "name:clients:heavy|light|mixed specs (overrides -clients)")
	budget := flag.Int("budget", 0, "global worker budget (0 = GOMAXPROCS)")
	maxconc := flag.Int("maxconc", 0, "max concurrently executing queries (0 = default)")
	maxqueued := flag.Int("maxqueued", 0, "global admission queue bound (0 = unbounded)")
	maxqueuedTenant := flag.Int("maxqueuedpertenant", 0, "per-tenant queue bound (0 = unbounded)")
	maxperTenant := flag.Int("maxpertenant", 0, "per-tenant running cap (0 = unbounded)")
	morsel := flag.Int("morsel", 0, "scan morsel size override (0 = engine default; smaller = finer-grained yielding)")
	yieldPause := flag.Duration("yieldpause", 0, "per-morsel pause imposed on over-cost tenants (0 = default)")
	prepared := flag.Bool("prepared", false, "prepared-statement workload over the network (plan cache, auto = hybrid)")
	fairbench := flag.Bool("fairbench", false, "run the solo-vs-contended fairness experiment")
	statsJSON := flag.Bool("statsjson", false, "also emit the final /statsz snapshot")
	qlog := flag.String("qlog", "", "append one NDJSON record per query to this file (structured query log)")
	qlogMax := flag.Int64("qlogmax", 0, "query log rotation bound in bytes (0 = 64 MiB)")
	prewarm := flag.String("prewarm", "", "mine this query log at startup and pre-prepare its heavy hitters with learned cardinality hints")
	shards := flag.Int("shards", 0, "range-partition each database into N in-process shards and run distributable ad-hoc SQL through scatter/gather exchanges (0 = single-process)")
	pprofFlag := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ on the front-end")
	flag.Parse()

	fmt.Fprintf(os.Stderr, "generating TPC-H SF=%g and SSB SF=%g...\n", *sf, *ssbsf)
	tpchDB := paradigms.GenerateTPCH(*sf, 0)
	ssbDB := paradigms.GenerateSSB(*ssbsf, 0)

	opts := paradigms.ServiceOptions{
		WorkerBudget:       *budget,
		MaxConcurrent:      *maxconc,
		MaxQueued:          *maxqueued,
		MaxQueuedPerTenant: *maxqueuedTenant,
		MaxPerTenant:       *maxperTenant,
		MorselSize:         *morsel,
		YieldPause:         *yieldPause,
		Metrics:            obs.NewMetrics(),
		Prewarm:            *prewarm,
		Shards:             *shards,
	}
	if *shards > 1 {
		fmt.Fprintf(os.Stderr, "sharding ad-hoc SQL across %d in-process shards...\n", *shards)
	}
	if *prewarm != "" {
		fmt.Fprintf(os.Stderr, "prewarming plan cache from %s...\n", *prewarm)
	}
	if *qlog != "" {
		ql, err := obs.OpenQueryLog(*qlog, *qlogMax)
		if err != nil {
			fmt.Fprintf(os.Stderr, "serve: %v\n", err)
			os.Exit(1)
		}
		defer ql.Close()
		opts.QueryLog = ql
	}

	if *fairbench {
		runFairbench(tpchDB, ssbDB, opts, *duration, *statsJSON)
		return
	}

	svc := paradigms.NewService(tpchDB, ssbDB, opts)
	base, shutdown, err := serve(svc, *listen, opts.Metrics, *pprofFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "serve: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "serving on %s\n", base)

	if *serveOnly {
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
		<-ch
		shutdown()
		svc.Close()
		fmt.Print(svc.Stats())
		return
	}

	specs := []tenantSpec{{name: "default", clients: *clients, workload: "mixed"}}
	if *tenants != "" {
		specs, err = parseTenants(*tenants)
		if err != nil {
			fmt.Fprintf(os.Stderr, "serve: %v\n", err)
			os.Exit(2)
		}
	}

	st := drive(base, specs, *engine, *prepared, *duration)
	shutdown()
	svc.Close()
	fmt.Print(svc.Stats())
	if *statsJSON {
		fmt.Printf("%s\n", st)
	}
}

// serve starts the HTTP front-end, returning its base URL and a
// shutdown func. A non-nil metrics registry backs /metricsz;
// withPprof mounts net/http/pprof under /debug/pprof/.
func serve(svc *server.Service, addr string, metrics *obs.Metrics, withPprof bool) (string, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	handler := proto.NewServer(svc, nil).WithMetrics(metrics).Handler()
	if withPprof {
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
	}
	hs := &http.Server{Handler: handler}
	go hs.Serve(ln)
	shutdown := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
	}
	return "http://" + ln.Addr().String(), shutdown, nil
}

// drive runs the closed-loop client fleet against base for d and
// returns the final /statsz snapshot.
func drive(base string, specs []tenantSpec, engine string, prepared bool, d time.Duration) []byte {
	var engines []string
	switch engine {
	case "typer", "tectorwise":
		engines = []string{engine}
	case "mixed":
		engines = []string{"typer", "tectorwise"}
		if prepared {
			engines = append(engines, "auto")
		}
	case "auto":
		if !prepared {
			fmt.Fprintln(os.Stderr, "serve: -engine auto requires -prepared")
			os.Exit(2)
		}
		engines = []string{"auto"}
	default:
		fmt.Fprintf(os.Stderr, "serve: unknown -engine %q\n", engine)
		os.Exit(2)
	}

	total := 0
	for _, sp := range specs {
		total += sp.clients
	}
	fmt.Fprintf(os.Stderr, "driving: %d clients over %v, engines %v, prepared=%v\n", total, d, engines, prepared)

	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()

	var wg sync.WaitGroup
	var preps []prepSpec
	if prepared {
		preps = preparedWorkload()
	}
	cid := 0
	for _, sp := range specs {
		texts := workloadTexts(sp.workload)
		for c := 0; c < sp.clients; c++ {
			cid++
			wg.Add(1)
			go func(sp tenantSpec, texts []string, c int) {
				defer wg.Done()
				cl := client.New(base, sp.name)
				rnd := rand.New(rand.NewSource(int64(c)))
				for i := c; ctx.Err() == nil; i++ {
					eng := engines[i%len(engines)]
					var rows *client.Rows
					var err error
					if prepared {
						k := rnd.Intn(len(preps))
						rows, err = cl.QueryPrepared(ctx, eng, preps[k].text, preps[k].args(rnd)...)
					} else {
						rows, err = cl.Query(ctx, eng, texts[i%len(texts)])
					}
					if err == nil {
						_, err = rows.All()
					}
					var retry *client.RetryError
					switch {
					case err == nil || ctx.Err() != nil:
					case errors.As(err, &retry):
						// Queue-depth backpressure: honor the server's
						// retry-after estimate.
						select {
						case <-time.After(retry.RetryAfter):
						case <-ctx.Done():
						}
					default:
						fmt.Fprintf(os.Stderr, "serve: client %d (%s): %v\n", c, sp.name, err)
						os.Exit(1)
					}
				}
			}(sp, texts, cid)
		}
	}
	wg.Wait()

	raw, err := client.New(base, "").Stats(context.Background())
	if err != nil {
		fmt.Fprintf(os.Stderr, "serve: statsz: %v\n", err)
		return nil
	}
	return raw
}

// runFairbench runs the two-phase fairness experiment: the light
// tenant's solo p99, then its p99 while a heavy tenant floods the
// service.
func runFairbench(tpchDB, ssbDB *paradigms.DB, opts paradigms.ServiceOptions, d time.Duration, statsJSON bool) {
	if opts.MaxConcurrent == 0 {
		opts.MaxConcurrent = 2 // keep a queue: contention is the experiment
	}
	if opts.TenantCaps == nil && opts.MaxPerTenant == 0 {
		// The heavy tenant can never occupy every slot: capped, it is
		// stepped over and the light tenant admits into the spare slot
		// immediately.
		opts.TenantCaps = map[string]int{"heavy": opts.MaxConcurrent - 1}
	}
	if opts.MorselSize == 0 {
		// Fine morsels make the per-morsel fairness throttle responsive:
		// a long scan yields hundreds of times per query instead of a
		// handful, so its pauses actually cede CPU to the light tenant.
		opts.MorselSize = 4096
	}
	if opts.YieldPause == 0 {
		opts.YieldPause = 2 * time.Millisecond
	}
	heavy := tenantSpec{name: "heavy", clients: 12, workload: "heavy"}
	light := tenantSpec{name: "light", clients: 4, workload: "light"}

	phase := func(label string, specs ...tenantSpec) server.TenantStats {
		svc := paradigms.NewService(tpchDB, ssbDB, opts)
		base, shutdown, err := serve(svc, "127.0.0.1:0", opts.Metrics, false)
		if err != nil {
			fmt.Fprintf(os.Stderr, "serve: %v\n", err)
			os.Exit(1)
		}
		raw := drive(base, specs, "mixed", false, d)
		shutdown()
		svc.Close()
		st := svc.Stats()
		fmt.Printf("--- %s ---\n%s", label, st)
		if statsJSON && raw != nil {
			fmt.Printf("%s\n", raw)
		}
		return st.Tenants["light"]
	}

	solo := phase("phase 1: light solo", light)
	drr := phase("phase 2: light vs heavy", heavy, light)

	ratio := 0.0
	if solo.P99 > 0 {
		ratio = float64(drr.P99) / float64(solo.P99)
	}
	fmt.Printf("\nfairness: light p99 solo %v | contended %v (%.1fx solo)\n", solo.P99, drr.P99, ratio)
}
