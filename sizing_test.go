package paradigms

import (
	"context"
	"runtime"
	"sort"
	"testing"

	"paradigms/internal/engine"
	"paradigms/internal/exec"
	"paradigms/internal/logical"
	"paradigms/internal/obs"
)

// TestWorkersSizedToInput: the driver runs a query on its worker
// budget or on as many workers as its largest scan has morsels,
// whichever is fewer, at the morsel size of the query's context.
// Every pipeline reports the count.
func TestWorkersSizedToInput(t *testing.T) {
	tpch, _ := sqlDBs()
	pl, err := logical.Prepare(tpch, `select r_regionkey, count(*) from region, nation where n_regionkey = r_regionkey group by r_regionkey`)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ morsel, want int }{
		{0, 1},  // 25 nations fit in one default morsel
		{10, 3}, // ⌈25 ÷ 10⌉ morsels
		{1, 4},  // 25 morsels, capped by the budget of 4
	} {
		for _, name := range engine.Names() {
			ctx := context.Background()
			if tc.morsel > 0 {
				ctx = exec.WithMorselSize(ctx, tc.morsel)
			}
			col := obs.NewCollector()
			if _, err := engine.Run(obs.WithCollector(ctx, col), name, pl, engine.Options{Workers: 4}); err != nil {
				t.Fatalf("%s morsel=%d: %v", name, tc.morsel, err)
			}
			for _, p := range col.Pipes() {
				if p.Workers != tc.want {
					t.Errorf("%s morsel=%d: pipeline %d (%s) ran on %d workers, want %d", name, tc.morsel, p.Index, p.Table, p.Workers, tc.want)
				}
			}
		}
	}
}

// TestTinyQueryAllocBudget pins what one prepared execution of a
// dimension-table query allocates, on every engine. Such queries cost
// more to set up than to run, so the shared driver sizes each query's
// state to its input: one worker when the largest scan is one morsel,
// pre-aggregation tables grown to the groups they meet, no merge table
// for an empty spill partition, and vector buffers no longer than the
// largest scan. Each budget is about twice the bytes measured at SF 0.01
// with a budget of 2 workers; undoing any one of those sizing rules
// allocates far more on at least one cell. The ad-hoc Q6 case parses,
// plans and lowers its text on every execution over lineitem's full
// 1000-row vectors: it pins that a vectorized worker's buffers come
// from the arena pool, which a fresh arena per query overruns.
func TestTinyQueryAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	tpch, ssb := sqlDBs()
	q6, _ := logical.SQLText("tpch", "Q6")
	for _, tc := range []struct {
		name, text string
		db         *DB
		args       []string
		adhoc      bool
		// budget is the KB one execution may allocate per engine.
		budget map[Engine]float64
	}{
		{"region_nation", `select count(*) as n from region, nation where n_regionkey = r_regionkey and r_regionkey = ?`,
			tpch, []string{"2"}, false, map[Engine]float64{Typer: 8, Tectorwise: 15, Hybrid: 15}},
		{"date_by_year", `select d_year, count(*) as n from date where d_monthnum = ? group by d_year`,
			ssb, []string{"3"}, false, map[Engine]float64{Typer: 140, Tectorwise: 245, Hybrid: 140}},
		{"supplier_by_region", `select n_regionkey, count(*) as n from supplier, nation where s_nationkey = n_nationkey and s_suppkey < ? group by n_regionkey`,
			tpch, []string{"90"}, false, map[Engine]float64{Typer: 135, Tectorwise: 165, Hybrid: 165}},
		{"q6_adhoc", q6, tpch, nil, true, map[Engine]float64{Typer: 16, Tectorwise: 18, Hybrid: 17}},
	} {
		st, err := Prepare(tc.db, tc.text)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, eng := range []Engine{Typer, Tectorwise, Hybrid} {
			run := func() {
				st := st
				if tc.adhoc {
					if st, err = Prepare(tc.db, tc.text); err != nil {
						t.Fatalf("%s: %v", tc.name, err)
					}
				}
				if _, _, err := st.Exec(context.Background(), eng, tc.args, Options{Workers: 2}); err != nil {
					t.Fatalf("%s on %s: %v", tc.name, eng, err)
				}
			}
			kb := allocKB(run)
			t.Logf("%s on %s: %.1f KB per execution", tc.name, eng, kb)
			if kb > tc.budget[eng] {
				t.Errorf("%s on %s allocates %.1f KB per execution, budget %.0f KB", tc.name, eng, kb, tc.budget[eng])
			}
		}
	}
}

// allocKB returns the KB run allocates per call: the median of five
// rounds of 50 calls, after a warm-up.
func allocKB(run func()) float64 {
	const calls = 50
	run()
	var rounds [5]float64
	for r := range rounds {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		rounds[r] = float64(after.TotalAlloc-before.TotalAlloc) / calls / 1024
	}
	sort.Float64s(rounds[:])
	return rounds[len(rounds)/2]
}
