// Command sqlsh is an interactive SQL shell over the generated TPC-H
// and SSB databases: statements parse, bind, and optimize once, then
// lower onto the engine selected with \engine — the Tectorwise
// vectorized operator layer (default), the Typer-style compiled fused
// pipelines, hybrid, which runs each pipeline of the query on the
// paradigm the cost heuristic assigns it, or auto, another name for
// the hybrid — and run morsel-parallel.
// Every statement's optimized plan is held in an LRU plan cache keyed
// on the normalized SQL text, so re-running a statement skips parse,
// bind, and plan.
//
// Usage:
//
//	sqlsh -sf 0.1 -ssbsf 0.1 [-workers 0] [-vecsize 0] [-engine tectorwise]
//
// Statements end with ';'. Queries route to the database whose catalog
// holds their FROM tables (TPC-H first, then SSB). Meta commands:
//
//	\tables            list tables of both catalogs
//	\d <table>         describe a table
//	\engine [name]     show or switch the execution backend
//	                   (typer | tectorwise | hybrid | auto; tw is
//	                   shorthand)
//	\prepare           list the named prepared statements
//	\prepare <name> <sql>
//	                   prepare a statement (one line, `?` placeholders
//	                   allowed) under a name
//	\execute <name> [arg ...]
//	                   run a prepared statement with one argument per
//	                   placeholder (dates as YYYY-MM-DD)
//	\q                 quit
//	explain <query>    print the backend and plan instead of running:
//	                   the optimized logical plan, plus the compiled
//	                   pipeline decomposition under \engine typer and
//	                   the per-pipeline engine assignment under
//	                   \engine hybrid and auto
//	explain analyze <query>
//	                   run the query instrumented and print, per
//	                   pipeline, the observed vs estimated cardinality,
//	                   selectivity, hash-table sizes, and wall time on
//	                   whichever backend \engine selects
//
// Example session:
//
//	sql> \prepare rev select sum(l_extendedprice * l_discount) as revenue
//	       from lineitem where l_shipdate >= ? and l_shipdate < ?
//	       and l_discount between ? and ? and l_quantity < ?
//	prepared rev (5 parameters)
//	sql> \execute rev 1994-01-01 1995-01-01 0.05 0.07 24
//	revenue
//	-----------
//	11803420.25
//	(1 row)  [12.3ms typer]
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"paradigms"
	"paradigms/internal/catalog"
	"paradigms/internal/compiled"
	"paradigms/internal/engine"
	"paradigms/internal/hybrid"
	"paradigms/internal/logical"
	"paradigms/internal/obs"
	"paradigms/internal/prepcache"
	"paradigms/internal/storage"
)

func main() {
	sf := flag.Float64("sf", 0.05, "TPC-H scale factor")
	ssbsf := flag.Float64("ssbsf", 0.05, "SSB scale factor")
	workers := flag.Int("workers", 0, "morsel workers per query (0 = GOMAXPROCS)")
	vecSize := flag.Int("vecsize", 0, "vector size (0 = default; vectorized engine only)")
	engineFlag := flag.String("engine", engine.Tectorwise, "initial engine (typer | tectorwise | hybrid | auto)")
	flag.Parse()

	eng, ok := engineName(*engineFlag)
	if !ok {
		fmt.Fprintf(os.Stderr, "sqlsh: unknown -engine %q\n", *engineFlag)
		os.Exit(2)
	}

	fmt.Fprintf(os.Stderr, "generating TPC-H SF=%g and SSB SF=%g...\n", *sf, *ssbsf)
	sh := &shell{
		dbs:     []*storage.Database{paradigms.GenerateTPCH(*sf, 0), paradigms.GenerateSSB(*ssbsf, 0)},
		workers: *workers,
		vecSize: *vecSize,
		engine:  eng,
		out:     os.Stdout,
		clock:   time.Now,
	}
	fmt.Fprintln(os.Stderr, `ready — statements end with ';', \q quits, \tables lists tables, \engine switches backends`)
	sh.run(os.Stdin)
}

// engineName canonicalizes an engine spelling ("tw" is shorthand).
func engineName(s string) (string, bool) {
	switch strings.ToLower(s) {
	case engine.Typer:
		return engine.Typer, true
	case engine.Tectorwise, "tw":
		return engine.Tectorwise, true
	case engine.Hybrid:
		return engine.Hybrid, true
	case prepcache.Auto:
		return prepcache.Auto, true
	}
	return "", false
}

// shell is the REPL state; run drives it from any reader so the REPL is
// script-testable (see main_test.go). Every executed statement goes
// through the plan cache; named prepared statements (\prepare) are
// cached statements under a name.
type shell struct {
	dbs     []*storage.Database
	workers int
	vecSize int
	engine  string
	out     io.Writer
	clock   func() time.Time

	cache *prepcache.Cache
	stmts map[string]*prepcache.Statement
}

func (sh *shell) run(in io.Reader) {
	if sh.cache == nil {
		sh.cache = prepcache.New(0)
	}
	if sh.stmts == nil {
		sh.stmts = map[string]*prepcache.Statement{}
	}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := "sql> "
	for {
		fmt.Fprint(sh.out, prompt)
		if !sc.Scan() {
			fmt.Fprintln(sh.out)
			return
		}
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, `\`) {
			if sh.meta(trimmed) {
				return
			}
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if !strings.Contains(line, ";") {
			prompt = "...> "
			continue
		}
		stmt := strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(buf.String()), ";"))
		buf.Reset()
		prompt = "sql> "
		if stmt == "" {
			continue
		}
		sh.statement(stmt)
	}
}

// meta handles backslash commands; reports true on quit.
func (sh *shell) meta(cmd string) bool {
	fields := strings.Fields(cmd)
	switch fields[0] {
	case `\q`, `\quit`:
		return true
	case `\tables`:
		for _, db := range sh.dbs {
			cat := catalog.For(db)
			fmt.Fprintf(sh.out, "%s:\n", db.Name)
			for _, t := range cat.Tables() {
				fmt.Fprintf(sh.out, "  %-12s %8d rows\n", t, cat.Table(t).Rows())
			}
		}
	case `\d`:
		if len(fields) < 2 {
			fmt.Fprintln(sh.out, `usage: \d <table>`)
			return false
		}
		for _, db := range sh.dbs {
			if t := catalog.For(db).Table(fields[1]); t != nil {
				fmt.Fprintf(sh.out, "%s.%s (%d rows", db.Name, t.Name, t.Rows())
				if t.Key != "" {
					fmt.Fprintf(sh.out, ", key %s", t.Key)
				}
				fmt.Fprintln(sh.out, ")")
				for _, c := range t.Columns() {
					kind := c.Type.Kind.String()
					if kind == "numeric" {
						kind = fmt.Sprintf("numeric(%d)", c.Type.Scale)
					}
					fmt.Fprintf(sh.out, "  %-20s %s\n", c.Name, kind)
				}
				return false
			}
		}
		fmt.Fprintf(sh.out, "unknown table %q\n", fields[1])
	case `\engine`:
		if len(fields) < 2 {
			fmt.Fprintf(sh.out, "engine: %s\n", sh.engine)
			return false
		}
		eng, ok := engineName(fields[1])
		if !ok {
			fmt.Fprintf(sh.out, "unknown engine %q (typer | tectorwise | hybrid | auto)\n", fields[1])
			return false
		}
		sh.engine = eng
		fmt.Fprintf(sh.out, "engine: %s\n", sh.engine)
	case `\prepare`:
		rest := strings.TrimSpace(cmd[len(`\prepare`):])
		if rest == "" {
			sh.listPrepared()
			return false
		}
		idx := strings.IndexAny(rest, " \t")
		if idx < 0 {
			fmt.Fprintln(sh.out, `usage: \prepare <name> <select ...>`)
			return false
		}
		name := rest[:idx]
		text := strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest[idx:]), ";"))
		db, err := logical.RouteByTables(text, sh.dbs...)
		if err != nil {
			fmt.Fprintln(sh.out, "error:", err)
			return false
		}
		st, _, err := sh.cache.GetOrPrepare(catalog.For(db), text, func() (*logical.Plan, error) {
			return logical.Prepare(db, text)
		})
		if err != nil {
			fmt.Fprintln(sh.out, "error:", err)
			return false
		}
		sh.stmts[name] = st
		fmt.Fprintf(sh.out, "prepared %s (%d parameter%s)\n", name, st.NumParams(), plural(st.NumParams()))
	case `\execute`:
		if len(fields) < 2 {
			fmt.Fprintln(sh.out, `usage: \execute <name> [arg ...]`)
			return false
		}
		st, ok := sh.stmts[fields[1]]
		if !ok {
			fmt.Fprintf(sh.out, "unknown prepared statement %q\n", fields[1])
			return false
		}
		vals, err := st.BindTexts(fields[2:])
		if err != nil {
			fmt.Fprintln(sh.out, "error:", err)
			return false
		}
		sh.runStatement(st, vals)
	default:
		fmt.Fprintf(sh.out, "unknown command %s\n", fields[0])
	}
	return false
}

// statement routes one statement through the plan cache and executes
// it (or explains it). Re-running a statement — any spelling that
// normalizes equally — skips parse, bind, and plan. "explain <sql>"
// prints the plan without running; "explain analyze <sql>" runs the
// statement instrumented and prints the per-pipeline observed vs
// estimated cardinalities and timings.
func (sh *shell) statement(stmt string) {
	explain, analyze := false, false
	if f := strings.Fields(stmt); len(f) > 0 && strings.EqualFold(f[0], "explain") {
		explain = true
		stmt = strings.TrimSpace(stmt[len(f[0]):])
		if len(f) > 1 && strings.EqualFold(f[1], "analyze") {
			analyze = true
			stmt = strings.TrimSpace(stmt[len(f[1]):])
		}
	}
	db, err := logical.RouteByTables(stmt, sh.dbs...)
	if err != nil {
		fmt.Fprintln(sh.out, "error:", err)
		return
	}
	if explain && !analyze {
		sh.explain(db, stmt)
		return
	}
	st, _, err := sh.cache.GetOrPrepare(catalog.For(db), stmt, func() (*logical.Plan, error) {
		return logical.Prepare(db, stmt)
	})
	if err != nil {
		fmt.Fprintln(sh.out, "error:", err)
		return
	}
	if n := st.NumParams(); n > 0 {
		fmt.Fprintf(sh.out, "statement has %d parameter%s; use \\prepare <name> <sql> and \\execute <name> <args>\n", n, plural(n))
		return
	}
	if analyze {
		sh.analyzeStatement(st, nil)
		return
	}
	sh.runStatement(st, nil)
}

// runStatement executes a cached statement with bound values on the
// shell's engine; hybrid and auto executions report their
// per-pipeline assignment next to the timing ("hybrid[t,v]",
// "auto→hybrid[t,v]").
func (sh *shell) runStatement(st *prepcache.Statement, vals []int64) {
	start := sh.clock()
	res, used, err := st.Execute(context.Background(), sh.engine, vals, sh.workers, sh.vecSize)
	if err != nil {
		fmt.Fprintln(sh.out, "error:", err)
		return
	}
	fmt.Fprint(sh.out, strings.TrimSuffix(res.String(), "\n"))
	elapsed := sh.clock().Sub(start).Round(100 * time.Microsecond)
	switch {
	case sh.engine == prepcache.Auto:
		fmt.Fprintf(sh.out, "  [%s auto→%s]\n", elapsed, used)
	case used != sh.engine:
		fmt.Fprintf(sh.out, "  [%s %s]\n", elapsed, used)
	default:
		fmt.Fprintf(sh.out, "  [%s]\n", elapsed)
	}
}

// analyzeStatement is runStatement instrumented: the execution runs
// under a telemetry collector, and instead of the result rows the
// shell prints the optimized plan, the per-pipeline observed vs
// estimated cardinalities and timings, and a one-line summary. Works
// on every backend — hybrid and auto rows additionally carry the
// per-pipeline engine assignment.
func (sh *shell) analyzeStatement(st *prepcache.Statement, vals []int64) {
	col := obs.NewCollector()
	ctx := obs.WithCollector(context.Background(), col)
	start := sh.clock()
	res, used, err := st.Execute(ctx, sh.engine, vals, sh.workers, sh.vecSize)
	if err != nil {
		fmt.Fprintln(sh.out, "error:", err)
		return
	}
	elapsed := sh.clock().Sub(start).Round(100 * time.Microsecond)
	fmt.Fprint(sh.out, st.Plan().Format())
	fmt.Fprint(sh.out, obs.FormatPipes(col.Pipes()))
	fmt.Fprintf(sh.out, "(%d row%s)  [%s %s]\n", len(res.Rows), plural(len(res.Rows)), elapsed, used)
}

// listPrepared prints the named prepared statements.
func (sh *shell) listPrepared() {
	if len(sh.stmts) == 0 {
		fmt.Fprintln(sh.out, "no prepared statements")
		return
	}
	names := make([]string, 0, len(sh.stmts))
	for n := range sh.stmts {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		st := sh.stmts[n]
		fmt.Fprintf(sh.out, "%-12s %d parameter%s  %s\n", n, st.NumParams(), plural(st.NumParams()), st.Text)
	}
}

func plural(n int) string {
	if n == 1 {
		return ""
	}
	return "s"
}

// explain prints the selected backend, the optimized logical plan, and
// — for the compiled, hybrid and auto engines — the fused pipeline
// decomposition (with the hybrid's per-pipeline engine assignment,
// which auto runs too).
func (sh *shell) explain(db *storage.Database, stmt string) {
	pl, err := logical.Prepare(db, stmt)
	if err != nil {
		fmt.Fprintln(sh.out, "error:", err)
		return
	}
	switch sh.engine {
	case engine.Typer:
		fmt.Fprintln(sh.out, "backend: typer (compiled fused pipelines)")
		fmt.Fprint(sh.out, pl.Format())
		shape, err := compiled.Explain(pl)
		if err != nil {
			fmt.Fprintln(sh.out, "error:", err)
			return
		}
		fmt.Fprint(sh.out, shape)
	case engine.Hybrid, prepcache.Auto:
		fmt.Fprintln(sh.out, "backend: hybrid (per-pipeline cost heuristic)")
		fmt.Fprint(sh.out, pl.Format())
		shape, err := hybrid.Explain(pl)
		if err != nil {
			fmt.Fprintln(sh.out, "error:", err)
			return
		}
		fmt.Fprint(sh.out, shape)
	default:
		fmt.Fprintln(sh.out, "backend: tectorwise (vectorized operator plan)")
		fmt.Fprint(sh.out, pl.Format())
	}
}
