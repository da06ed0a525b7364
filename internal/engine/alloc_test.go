package engine_test

import (
	"context"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"paradigms/internal/engine"
	"paradigms/internal/logical"
	"paradigms/internal/ssb"
	"paradigms/internal/storage"
	"paradigms/internal/tpch"
)

var (
	ceilOnce         sync.Once
	ceilTPCH, ceilSB *storage.Database
)

// ceiling is what one execution of a shape may allocate on one engine:
// heap objects and bytes.
type ceiling struct {
	allocs, bytes uint64
}

// TestAllocationCeilings pins what one execution allocates, per engine
// and shape, on 1 worker at SF 0.01: lowering the plan, binding the
// driver's state and running it. Each shape is prepared once and run
// through Run, which lowers on every execution. After one warm
// execution, the largest of five executions' object and byte counts
// must stay at or under the ceiling, which sits a few percent over the
// measured value. A change that lowers a number lowers its ceiling; one
// that raises a number says why in the change log.
func TestAllocationCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	// No collection may empty the vector arena pool between executions,
	// and one P keeps every pooled arena in the slot the next Get reads.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ceilOnce.Do(func() {
		ceilTPCH = tpch.Generate(0.01, 0)
		ceilSB = ssb.Generate(0.01, 0)
	})
	text := func(dataset, name string) string {
		s, ok := logical.SQLText(dataset, name)
		if !ok {
			t.Fatalf("no SQL text for %s %s", dataset, name)
		}
		return s
	}
	for _, sh := range []struct {
		name string
		db   *storage.Database
		text string
		args []int64
		ceil map[string]ceiling // per engine
	}{
		{"Q6", ceilTPCH, text("tpch", "Q6"), nil, map[string]ceiling{
			engine.Typer:      {40, 2176},
			engine.Tectorwise: {52, 2816},
			engine.Hybrid:     {46, 2304},
		}},
		{"Q3", ceilTPCH, text("tpch", "Q3"), nil, map[string]ceiling{
			engine.Typer:      {517, 598912},
			engine.Tectorwise: {534, 625024},
			engine.Hybrid:     {545, 643904},
		}},
		{"Q5", ceilTPCH, text("tpch", "Q5"), nil, map[string]ceiling{
			engine.Typer:      {216, 181952},
			engine.Tectorwise: {268, 184512},
			engine.Hybrid:     {267, 219520},
		}},
		{"Q2.1", ceilSB, text("ssb", "Q2.1"), nil, map[string]ceiling{
			engine.Typer:      {577, 650496},
			engine.Tectorwise: {621, 568320},
			engine.Hybrid:     {635, 708480},
		}},
		{"customer_count", ceilTPCH, `select count(*) as n from customer where c_nationkey < ?`, []int64{5}, map[string]ceiling{
			engine.Typer:      {38, 2368},
			engine.Tectorwise: {46, 2752},
			engine.Hybrid:     {44, 2496},
		}},
	} {
		pl, err := logical.Prepare(sh.db, sh.text)
		if err != nil {
			t.Fatalf("%s: %v", sh.name, err)
		}
		for _, name := range engine.Names() {
			opt := engine.Options{Args: sh.args, Workers: 1}
			run := func() {
				if _, err := engine.Run(context.Background(), name, pl, opt); err != nil {
					t.Fatalf("%s on %s: %v", sh.name, name, err)
				}
			}
			run()
			var got ceiling
			for r := 0; r < 5; r++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				run()
				runtime.ReadMemStats(&after)
				got.allocs = max(got.allocs, after.Mallocs-before.Mallocs)
				got.bytes = max(got.bytes, after.TotalAlloc-before.TotalAlloc)
			}
			c := sh.ceil[name]
			t.Logf("%s on %s: %d allocs, %d B (ceiling %d, %d B)", sh.name, name, got.allocs, got.bytes, c.allocs, c.bytes)
			if got.allocs > c.allocs || got.bytes > c.bytes {
				t.Errorf("%s on %s allocates %d objects, %d B per execution; ceiling %d, %d B",
					sh.name, name, got.allocs, got.bytes, c.allocs, c.bytes)
			}
		}
	}
}
