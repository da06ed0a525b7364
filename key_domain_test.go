package paradigms

import (
	"context"
	"testing"

	"paradigms/internal/engine"
	"paradigms/internal/logical"
	"paradigms/internal/obs"
	"paradigms/internal/sqlcheck"
)

// TestKeyDomainCases runs sqlcheck's key-domain cases through the
// differential harness — every engine, worker count and vector size
// against the oracle, and through 2 shards — and checks from telemetry
// that each aggregated with the layout it names, on every engine.
func TestKeyDomainCases(t *testing.T) {
	db := sqlcheck.KeyDomainDB()
	for _, c := range sqlcheck.KeyDomainCases {
		checkDifferential(t, db, c.Text, fullGrid)
		checkSharded(t, db, c.Text, 2, nil)
		pl, err := logical.Prepare(db, c.Text)
		if err != nil {
			t.Fatal(err)
		}
		want := obs.LayoutHash
		if c.Array {
			want = obs.LayoutArray
		}
		for _, name := range []string{engine.Typer, engine.Tectorwise, engine.Hybrid} {
			col := obs.NewCollector()
			if _, err := engine.Run(obs.WithCollector(context.Background(), col), name, pl, engine.Options{}); err != nil {
				t.Fatalf("%s %s: %v", c.Name, name, err)
			}
			pipes := col.Pipes()
			if got := pipes[len(pipes)-1].Layout; got != want {
				t.Errorf("%s %s: aggregation layout %q, want %q", c.Name, name, got, want)
			}
		}
	}
}
