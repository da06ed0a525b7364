package main

import (
	"bytes"
	"flag"
	"os"
	"strings"
	"testing"
	"time"

	"paradigms/internal/engine"
	"paradigms/internal/sqlcheck"
	"paradigms/internal/storage"
)

var update = flag.Bool("update", false, "rewrite the REPL session golden file")

// TestREPLSession drives the shell with a scripted stdin over small
// synthetic databases and pins the full transcript: \tables, \d, the
// \engine switch, explain on all three backends (including the
// hybrid's per-pipeline engine assignment), query execution on all
// three backends (hybrid executions report their assignment next to
// the timing), prepared statements (\prepare/\execute with `?` arguments,
// the \prepare listing, argument errors), explain and two executions
// under auto (the hybrid's assignment, the same on every run), an error
// diagnostic, and an unknown meta command. The clock is frozen so
// timings render as [0s].
func TestREPLSession(t *testing.T) {
	script := strings.Join([]string{
		`\tables`,
		`\d orders`,
		`\d nosuch`,
		`\engine`,
		`select count(*) from orders;`,
		`select o_custkey, count(*) as n`,
		`from orders, customer`,
		`where o_custkey = c_custkey and c_custkey <= 3`,
		`group by o_custkey order by 1;`,
		`explain select sum(lo_revenue) from lineorder, date where lo_orderdate = d_datekey and d_year = 1993;`,
		`\engine typer`,
		`select count(*) from orders;`,
		`explain select sum(lo_revenue) from lineorder, date where lo_orderdate = d_datekey and d_year = 1993;`,
		`\engine hybrid`,
		`select count(*) from orders;`,
		`select o_custkey, count(*) as n`,
		`from orders, customer`,
		`where o_custkey = c_custkey and c_custkey <= 3`,
		`group by o_custkey order by 1;`,
		`explain select sum(lo_revenue) from lineorder, date where lo_orderdate = d_datekey and d_year = 1993;`,
		`\engine bogus`,
		`\engine tw`,
		`\prepare`,
		`\prepare rev`,
		`\prepare rev select sum(l_extendedprice) as total from lineitem where l_quantity < ?`,
		`\execute rev 30`,
		`\engine auto`,
		`explain select sum(lo_revenue) from lineorder, date where lo_orderdate = d_datekey and d_year = 1993;`,
		`\execute rev 10`,
		`\execute rev 40`,
		`\prepare`,
		`\execute nosuch 1`,
		`\execute rev`,
		`\execute rev abc`,
		`select count(*) from orders where o_custkey < ?;`,
		`select nope from orders;`,
		`select count(*) from nosuch;`,
		`\x`,
		`\q`,
	}, "\n") + "\n"

	var out bytes.Buffer
	fixed := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	sh := &shell{
		dbs:     []*storage.Database{sqlcheck.MiniTPCH(20, true), sqlcheck.MiniSSB(10, true)},
		workers: 2,
		engine:  engine.Tectorwise,
		out:     &out,
		clock:   func() time.Time { return fixed },
	}
	sh.run(strings.NewReader(script))

	got := out.String()
	const golden = "testdata/session.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("REPL transcript changed\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestREPLEngineParity: the same statement through the REPL's two
// engines prints identical result tables (timings frozen).
func TestREPLEngineParity(t *testing.T) {
	const q = `select o_custkey, count(*) from orders group by o_custkey order by 1 limit 5;` + "\n\\q\n"
	runOn := func(engine string) string {
		var out bytes.Buffer
		fixed := time.Now()
		sh := &shell{
			dbs:     []*storage.Database{sqlcheck.MiniTPCH(20, true)},
			workers: 2,
			engine:  engine,
			out:     &out,
			clock:   func() time.Time { return fixed },
		}
		sh.run(strings.NewReader(q))
		return out.String()
	}
	tw, ty := runOn(engine.Tectorwise), runOn(engine.Typer)
	if tw != ty {
		t.Errorf("engines print different transcripts\ntectorwise:\n%s\ntyper:\n%s", tw, ty)
	}
}
