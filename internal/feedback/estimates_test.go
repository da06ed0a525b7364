package feedback

import (
	"context"
	"testing"

	"paradigms/internal/logical"
	"paradigms/internal/obs"
	"paradigms/internal/ssb"
	"paradigms/internal/storage"
	"paradigms/internal/tpch"
)

// TestEstimatesWithinDriftThreshold guards the planner's cardinality
// estimates: on a small generated database, every pipeline of Q3, Q5
// and SSB Q2.1 — the join shapes of the benchmark's prepared
// statements — observes an output within DriftThreshold of its
// est_rows, the same drift Record re-plans on. An estimator regression
// fails here instead of silently re-planning those statements at run
// time.
func TestEstimatesWithinDriftThreshold(t *testing.T) {
	tp, sb := tpch.Generate(0.05, 0), ssb.Generate(0.05, 0)
	for _, q := range []struct {
		db   *storage.Database
		name string
	}{{tp, "Q3"}, {tp, "Q5"}, {sb, "Q2.1"}} {
		text, _ := logical.SQLText(q.db.Name, q.name)
		pl, err := logical.Prepare(q.db, text)
		if err != nil {
			t.Fatalf("%s: %v", q.name, err)
		}
		col := obs.NewCollector()
		if _, err := pl.Execute(obs.WithCollector(context.Background(), col), 2, 0); err != nil {
			t.Fatalf("%s: %v", q.name, err)
		}
		for _, p := range col.Pipes() {
			d := maxDrift([]obs.PipeStat{p})
			t.Logf("%s pipe %d (%s): est_rows %.0f, rows_out %d, drift %.2f", q.name, p.Index, p.Table, p.EstRows, p.RowsOut, d)
			if d >= DriftThreshold {
				t.Errorf("%s pipe %d (%s): est_rows %.0f vs rows_out %d drifts %.2fx, at or past the %vx re-plan threshold",
					q.name, p.Index, p.Table, p.EstRows, p.RowsOut, d, DriftThreshold)
			}
		}
	}
}
