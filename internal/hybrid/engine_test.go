package hybrid

import (
	"context"
	"reflect"
	"testing"
	"time"

	"paradigms/internal/exec"
	"paradigms/internal/logical"
	"paradigms/internal/obs"
	"paradigms/internal/plan"
	"paradigms/internal/queries"
	"paradigms/internal/tpch"
	"paradigms/internal/vector"
)

// q3Rows maps a typed Q3 result into the SQL subsystem's raw row
// layout (same mapping as sqlcheck.RefRows, local to avoid the import
// cycle with the differential harness).
func q3Rows(res queries.Q3Result) [][]int64 {
	var out [][]int64
	for _, r := range res {
		out = append(out, []int64{int64(r.OrderKey), r.Revenue, int64(r.OrderDate), int64(r.ShipPriority)})
	}
	return out
}

// TestGenericHybridMatchesHandWrittenROF is the ablation pin: the
// plan-driven per-pipeline executor on the canonical Q3 SQL text must
// reproduce queries.RefQ3 bit for bit — the reference the hand-written
// ROF monolith was checked against before it was deleted. The SF 0.2
// single-worker row overflows the fused pipeline's pre-aggregation
// table, so the spill path is covered too.
func TestGenericHybridMatchesHandWrittenROF(t *testing.T) {
	text, ok := logical.SQLText("tpch", "Q3")
	if !ok {
		t.Fatal("no canonical Q3 SQL text")
	}
	for _, tc := range []struct {
		sf      float64
		workers []int
	}{{0.01, []int{1, 4}}, {0.05, []int{1, 4}}, {0.2, []int{1}}} {
		db := tpch.Generate(tc.sf, 0)
		want := q3Rows(queries.RefQ3(db))
		pl, err := logical.Prepare(db, text)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range tc.workers {
			for _, assign := range [][]Engine{nil, forced(t, pl, EngineCompiled)} {
				res, _, err := ExecuteRouted(context.Background(), pl, workers, 0, assign)
				if err != nil {
					t.Fatalf("sf=%v w=%d: %v", tc.sf, workers, err)
				}
				if !reflect.DeepEqual(res.Rows, want) {
					t.Errorf("sf=%v w=%d assign=%v: generic hybrid differs from the Q3 reference\n got %v\nwant %v",
						tc.sf, workers, assign, res.Rows, want)
				}
			}
		}
	}
}

// forced repeats an engine pattern over every pipeline of pl — an
// assignment for ExecuteRouted to run in place of CostAssign's.
func forced(t *testing.T, pl *logical.Plan, pattern ...Engine) []Engine {
	t.Helper()
	out := make([]Engine, len(logical.Decompose(pl)))
	for i := range out {
		out[i] = pattern[i%len(pattern)]
	}
	return out
}

// TestForcedAssignmentsAllAgree: every forced per-pipeline assignment
// — all compiled, all vectorized, and both alternations — produces the
// reference rows on Q3 and Q5. This exercises every cross-engine
// handoff direction through the shared hash tables.
func TestForcedAssignmentsAllAgree(t *testing.T) {
	db := tpch.Generate(0.02, 0)
	patterns := [][]Engine{
		{EngineCompiled},
		{EngineVectorized},
		{EngineCompiled, EngineVectorized},
		{EngineVectorized, EngineCompiled},
	}
	for _, name := range []string{"Q3", "Q5"} {
		text, ok := logical.SQLText("tpch", name)
		if !ok {
			t.Fatalf("no canonical %s SQL text", name)
		}
		pl, err := logical.Prepare(db, text)
		if err != nil {
			t.Fatal(err)
		}
		var want [][]int64
		for _, pat := range patterns {
			assign := forced(t, pl, pat...)
			col := obs.NewCollector()
			res, rep, err := ExecuteRouted(obs.WithCollector(context.Background(), col), pl, 4, 0, assign)
			if err != nil {
				t.Fatalf("%s pattern %v: %v", name, pat, err)
			}
			if want == nil {
				want = res.Rows
			} else if !reflect.DeepEqual(res.Rows, want) {
				t.Errorf("%s pattern %v differs:\n got %v\nwant %v", name, pat, res.Rows, want)
			}
			// The report reflects the forced assignment, and the
			// collector holds one timed pipeline per assigned engine.
			if !reflect.DeepEqual(rep.Assign, assign) {
				t.Errorf("%s pattern %v: report assignment %v does not match %v", name, pat, rep.Assign, assign)
			}
			pipes := col.Pipes()
			if len(pipes) != len(assign) {
				t.Fatalf("%s pattern %v: collector holds %d pipelines, want %d", name, pat, len(pipes), len(assign))
			}
			for i, p := range pipes {
				if p.Engine != assign[i].String() || p.Nanos <= 0 {
					t.Errorf("%s pattern %v: pipeline %d reported engine %q after %dns, want %q and a wall time",
						name, pat, i, p.Engine, p.Nanos, assign[i])
				}
			}
			for i, e := range rep.Assign {
				if e == EngineCompiled && rep.Vec[i] != 0 {
					t.Errorf("%s pattern %v: compiled pipeline %d reports vector size %d", name, pat, i, rep.Vec[i])
				}
				if e == EngineVectorized && rep.Vec[i] == 0 {
					t.Errorf("%s pattern %v: vectorized pipeline %d reports no vector size", name, pat, i)
				}
			}
		}
	}
}

// TestFixedVectorSizeDisablesAdaptivity: an explicit vector size must
// be honored verbatim by every vectorized pipeline (no trials).
func TestFixedVectorSizeDisablesAdaptivity(t *testing.T) {
	db := tpch.Generate(0.02, 0)
	text, _ := logical.SQLText("tpch", "Q3")
	pl, err := logical.Prepare(db, text)
	if err != nil {
		t.Fatal(err)
	}
	res, rep, err := ExecuteRouted(context.Background(), pl, 2, 513, forced(t, pl, EngineVectorized))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	for i, v := range rep.Vec {
		if v != 513 {
			t.Errorf("pipeline %d ran at vector size %d, want the fixed 513", i, v)
		}
	}
}

// tickingScan charges a fake clock a fixed cost per scan window plus a
// cost per scanned row — the only time that passes in the test.
type tickingScan struct {
	scan              *plan.Scan
	clock             *time.Time
	perWindow, perRow time.Duration
}

func (s *tickingScan) Next(b *plan.Batch) bool {
	if !s.scan.Next(b) {
		return false
	}
	*s.clock = s.clock.Add(s.perWindow + time.Duration(b.N)*s.perRow)
	return true
}

type discardSink struct{}

func (discardSink) Consume(*plan.Batch)       {}
func (discardSink) Finish(*exec.Barrier, int) {}

// TestVectorSizeRacingCountsScannedRows: the racing compares ns per
// *scanned* row. Under a predicate that passes one row in 16384, a
// 256-tuple trial scans 64 windows per batch that reaches the sink and
// a 4096-tuple trial scans 4; charging the trial's time to the rows of
// the batches that got through (the old accounting) made the largest
// candidate win by construction. With a fixed cost per window and per
// row the per-row cost of candidate c is exactly perWindow/c + perRow.
func TestVectorSizeRacingCountsScannedRows(t *testing.T) {
	const total = 1 << 20
	for _, tc := range []struct {
		perWindow, perRow time.Duration
		want              [len(vecCandidates)]float64
	}{
		{1024, 1, [...]float64{5, 2, 1.25}},
		{0, 1, [...]float64{1, 1, 1}}, // no per-window cost: a tie, where the old accounting still ranked 4096 first
	} {
		pipeline := func() (plan.Operator, *plan.Scan, func() time.Time) {
			// One morsel, so every window is full-sized.
			scan := plan.NewExec(context.Background(), 1, 4096, total).NewScan(exec.NewDispatcher(total, total))
			clock := time.Unix(0, 0)
			ticking := &tickingScan{scan: scan, clock: &clock, perWindow: tc.perWindow, perRow: tc.perRow}
			sparse := plan.Pred{Dense: func(base, n int, res []int32) int {
				k := 0
				for i := 0; i < n; i++ {
					if (base+i)%16384 == 0 {
						res[k] = int32(i)
						k++
					}
				}
				return k
			}}
			root := plan.NewFilterChain(vector.NewBuffers(4096), ticking, sparse)
			return root, scan, func() time.Time { return clock }
		}

		root, scan, now := pipeline()
		costs := trialCosts(root, scan, discardSink{}, vecCandidates, now)
		if len(costs) != len(tc.want) {
			t.Fatalf("trial ran dry: %v", costs)
		}
		for i, c := range costs {
			if c != tc.want[i] {
				t.Errorf("perWindow=%d: candidate %d costs %v ns per scanned row, want %v",
					tc.perWindow, vecCandidates[i], c, tc.want[i])
			}
		}
	}
}
