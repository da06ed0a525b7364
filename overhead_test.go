package paradigms

import (
	"context"
	"sort"
	"testing"
	"time"

	"paradigms/internal/engine"
	"paradigms/internal/logical"
	"paradigms/internal/obs"
)

const overheadQ6 = `select sum(l_extendedprice * l_discount) as revenue from lineitem
	where l_shipdate >= '1994-01-01' and l_shipdate < '1995-01-01'
	and l_discount between 0.05 and 0.07 and l_quantity < 24`

// TestTelemetryOverhead is the guard the obs package doc promises:
// instrumented executions (collector on the context) must stay within
// a small factor of uninstrumented ones on both the scan-bound (Q6)
// and join-bound (Q3) shapes, on every backend. The collector merges
// once per worker per pipeline — never inside the tuple/vector hot
// loop — so the medians should be near-identical; the factor is
// generous purely for CI timer noise.
func TestTelemetryOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	db := GenerateTPCH(0.05, 0)
	const rounds = 7
	const factor = 3.0

	median := func(run func()) time.Duration {
		run() // warm up
		times := make([]time.Duration, rounds)
		for i := range times {
			start := time.Now()
			run()
			times[i] = time.Since(start)
		}
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		return times[rounds/2]
	}

	for _, tc := range []struct {
		name, text string
	}{
		{"Q6", overheadQ6},
		{"Q3", telemetryQ3},
	} {
		pl, err := logical.Prepare(db, tc.text)
		if err != nil {
			t.Fatal(err)
		}
		for _, eng := range []string{engine.Typer, engine.Tectorwise, engine.Hybrid} {
			run := func(ctx context.Context) {
				if _, err := engine.Run(ctx, eng, pl, engine.Options{}); err != nil {
					t.Fatal(err)
				}
			}
			plain := median(func() { run(context.Background()) })
			instr := median(func() {
				run(obs.WithCollector(context.Background(), obs.NewCollector()))
			})
			t.Logf("%s/%s: uninstrumented %v, instrumented %v", tc.name, eng, plain, instr)
			if float64(instr) > float64(plain)*factor {
				t.Errorf("%s/%s: instrumented %v exceeds %gx uninstrumented %v",
					tc.name, eng, instr, factor, plain)
			}
		}
	}
}
