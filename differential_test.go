package paradigms

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"paradigms/internal/engine"
	"paradigms/internal/exec"
	"paradigms/internal/logical"
	"paradigms/internal/obs"
	"paradigms/internal/sqlcheck"
	"paradigms/internal/storage"
)

// The cross-engine differential harness — the proof that the two SQL
// lowering backends implement the same language: every generated query
// executes on the vectorized (Tectorwise) lowering across vector sizes,
// on the compiled (Typer) lowering, and on the naive oracle, and all
// row multisets must be identical. The generator (internal/sqlcheck)
// only emits LIMIT under a total-order ORDER BY, so canonicalized
// comparison is exact.

// diffConfig bounds one differential check's execution grid.
type diffConfig struct {
	vecSizes []int
	workers  []int
}

var fullGrid = diffConfig{vecSizes: []int{1, 1000, 4096}, workers: []int{1, 4}}

// checkDifferential runs one SQL text through the oracle and, via the
// one engine dispatch, the compiled, hybrid, and vectorized backends,
// and fails on any mismatch. A workers > 1 cell runs under cellCtx, so
// it really runs on that many workers, and fails if it did not.
func checkDifferential(t *testing.T, db *storage.Database, text string, cfg diffConfig) {
	t.Helper()
	ctx := context.Background()
	want, err := sqlcheck.Oracle(db, text)
	if err != nil {
		t.Fatalf("oracle failed for %q: %v", text, err)
	}
	pl, err := logical.Prepare(db, text)
	if err != nil {
		t.Fatalf("prepare failed for %q: %v", text, err)
	}
	check := func(name string, workers, vec int) {
		t.Helper()
		cctx, ranOn := cellCtx(t, ctx, pl, workers, nil)
		out, err := engine.Run(cctx, name, pl, engine.Options{Workers: workers, VecSize: vec})
		if err != nil {
			t.Fatalf("%s w=%d vec=%d failed for %q: %v", name, workers, vec, text, err)
		}
		if !sqlcheck.SameRows(out.Result.Rows, want) {
			t.Errorf("%s w=%d vec=%d differs from oracle for %q\n got %v\nwant %v",
				name, workers, vec, text, clip(out.Result.Rows), clip(want))
		}
		ranOn(fmt.Sprintf("%s w=%d vec=%d %q", name, workers, vec, text))
	}
	for _, workers := range cfg.workers {
		check(engine.Typer, workers, 0)
		check(engine.Hybrid, workers, 0)
		for _, vec := range cfg.vecSizes {
			check(engine.Tectorwise, workers, vec)
		}
	}
}

// cellCtx returns the context one execution cell of the differential
// suites runs under (parallelCtx's, instrumented), and a check that the
// cell ran on the workers it asked for; a non-nil seen tallies the
// layouts the cell's pipelines ran with.
func cellCtx(t *testing.T, ctx context.Context, pl *logical.Plan, workers int, seen layoutTally) (context.Context, func(cell string)) {
	t.Helper()
	if workers <= 1 {
		return ctx, func(string) {}
	}
	col := obs.NewCollector()
	ctx = obs.WithCollector(parallelCtx(t, ctx, pl, workers, 1), col)
	return ctx, func(cell string) {
		t.Helper()
		pipes := col.Pipes()
		if len(pipes) == 0 {
			t.Errorf("%s: no pipeline telemetry", cell)
		}
		seen.add(pipes)
		for _, p := range pipes {
			if p.Workers != workers {
				t.Errorf("%s: pipeline %d (%s) ran on %d workers, want %d", cell, p.Index, p.Table, p.Workers, workers)
			}
		}
	}
}

// parallelCtx keeps a workers > 1 cell parallel. The driver gives a
// query no more workers than its largest scan has morsels, and every
// table of the SF 0.01 databases fits in one default morsel; so the
// cell runs at a morsel size that splits the plan's largest scan into
// at least workers morsels on each of shards shards.
func parallelCtx(t *testing.T, ctx context.Context, pl *logical.Plan, workers, shards int) context.Context {
	t.Helper()
	rows := largestScan(pl.Root)
	if rows < workers*shards {
		t.Fatalf("largest scan of %d rows cannot feed %d workers on %d shards", rows, workers, shards)
	}
	return exec.WithMorselSize(ctx, rows/(workers*shards))
}

// largestScan is the row count of the largest table a plan scans.
func largestScan(n logical.Node) int {
	if j, ok := n.(*logical.Join); ok {
		return max(largestScan(j.Build), largestScan(j.Probe))
	}
	return n.Spine().Table.Rel.Rows()
}

// layoutTally counts the hash-table layouts (obs.PipeStat.Layout) a
// suite's instrumented cells ran with, by pipeline role.
type layoutTally map[string]int

func (l layoutTally) add(pipes []obs.PipeStat) {
	if l == nil {
		return
	}
	for _, p := range pipes {
		if p.Layout == "" {
			continue
		}
		role := "final"
		if p.Build {
			role = "build"
		}
		l[role+" "+p.Layout]++
	}
}

// requireBothSides fails unless the suite ran both sides of both layout
// rules: a key-indexed and a hashed join build, an array and a hashed
// aggregation.
func (l layoutTally) requireBothSides(t *testing.T) {
	t.Helper()
	for _, want := range []string{
		"build " + obs.LayoutIndex, "build " + obs.LayoutHash,
		"final " + obs.LayoutArray, "final " + obs.LayoutHash,
	} {
		if l[want] == 0 {
			t.Errorf("no cell ran a %s layout (saw %v)", want, l)
		}
	}
}

func clip(rows [][]int64) [][]int64 {
	if len(rows) > 6 {
		return rows[:6]
	}
	return rows
}

// TestSQLDifferentialCorpus is the bounded random corpus: 200 seeded
// queries (alternating TPC-H and SSB schemas), each executed on the
// compiled backend, the vectorized backend across vector sizes
// {1, 1000, 4096} × workers {1, 4}, and the trusted oracle, asserting
// bit-identical row multisets throughout.
func TestSQLDifferentialCorpus(t *testing.T) {
	tpchDB, ssbDB := sqlDBs()
	for seed := int64(0); seed < 200; seed++ {
		db := tpchDB
		if seed%2 == 1 {
			db = ssbDB
		}
		text := sqlcheck.Generate(rand.New(rand.NewSource(seed)), db)
		checkDifferential(t, db, text, fullGrid)
	}
}

// TestSQLDifferentialRaceSmoke is the CI -race job's corpus (also run
// at GOMAXPROCS 1, 2 and 8): small (25 queries), one multi-worker
// configuration whose 4 workers all run, both backends — enough
// to catch data races in the fused pipelines and the shared merge
// machinery without the full grid's runtime under the race detector.
func TestSQLDifferentialRaceSmoke(t *testing.T) {
	tpchDB, ssbDB := sqlDBs()
	cfg := diffConfig{vecSizes: []int{1000}, workers: []int{4}}
	for seed := int64(1000); seed < 1025; seed++ {
		db := tpchDB
		if seed%2 == 1 {
			db = ssbDB
		}
		text := sqlcheck.Generate(rand.New(rand.NewSource(seed)), db)
		checkDifferential(t, db, text, cfg)
	}
}

// FuzzSQLDifferential turns the corpus into a fuzz target: any seed
// must generate a query on which compiled, vectorized, and oracle
// execution agree. Wired into the CI fuzz smoke next to FuzzParse. A
// non-empty text runs instead of the generated query, on the database
// seed mod 3 names (TPC-H, SSB, the residual cases' wrap database); the residual cases
// seed it, and a mutated text the planner or the oracle rejects, or
// one with a LIMIT (whose rows need not be a total order's prefix), is
// skipped.
func FuzzSQLDifferential(f *testing.F) {
	for _, seed := range []int64{0, 1, 7, 42, 1234, 99999} {
		f.Add(seed, "")
	}
	datasets := []string{"tpch", "ssb", "wrap"}
	for _, c := range sqlcheck.ResidualCases {
		f.Add(int64(slices.Index(datasets, c.Dataset)), c.Text)
	}
	tpchDB, ssbDB := sqlDBs()
	cfg := diffConfig{vecSizes: []int{1, 1000}, workers: []int{1, 4}}
	f.Fuzz(func(t *testing.T, seed int64, text string) {
		if text != "" {
			db := residualDB(datasets[uint64(seed)%3])
			if strings.Contains(strings.ToLower(text), "limit") {
				t.Skip("a LIMIT text's rows need not be a total order's prefix")
			}
			if _, err := logical.Prepare(db, text); err != nil {
				t.Skip(err)
			}
			if _, err := sqlcheck.Oracle(db, text); err != nil {
				t.Skip(err)
			}
			checkDifferential(t, db, text, cfg)
			return
		}
		db := tpchDB
		if seed%2 != 0 {
			db = ssbDB
		}
		text = sqlcheck.Generate(rand.New(rand.NewSource(seed)), db)
		checkDifferential(t, db, text, cfg)
	})
}
