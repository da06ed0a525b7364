package paradigms

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"

	"paradigms/internal/obs"
)

// TestPrewarmFromQueryLog is the restart scenario behind cmd/serve
// -prewarm: a first service instance executes prepared SQL with the
// structured query log enabled; a second instance mines that log at
// startup and pre-prepares the templates it finds — so the restarted
// server's first Prepare of a mined statement is a plan-cache hit, and
// its result matches the first instance's.
func TestPrewarmFromQueryLog(t *testing.T) {
	db := GenerateTPCH(0.001, 0)
	qlog := filepath.Join(t.TempDir(), "queries.ndjson")
	const sqlText = `select count(*) as big from lineitem where l_quantity > 30`
	ctx := context.Background()

	ql, err := obs.OpenQueryLog(qlog, 0)
	if err != nil {
		t.Fatal(err)
	}
	svc1 := NewService(db, nil, ServiceOptions{QueryLog: ql})
	p1, err := svc1.Prepare(sqlText)
	if err != nil {
		t.Fatal(err)
	}
	var want any
	for i := 0; i < 3; i++ {
		want, err = svc1.DoPrepared(ctx, "tectorwise", p1)
		if err != nil {
			t.Fatal(err)
		}
	}
	svc1.Close()
	if err := ql.Close(); err != nil {
		t.Fatal(err)
	}

	svc2 := NewService(db, nil, ServiceOptions{Prewarm: qlog})
	defer svc2.Close()
	st := svc2.Stats()
	if st.PlanCacheMisses == 0 {
		t.Fatal("prewarm prepared nothing (no plan-cache misses at startup)")
	}
	if st.PlanCacheHits != 0 {
		t.Fatalf("plan cache reports %d hits before any client Prepare", st.PlanCacheHits)
	}
	p2, err := svc2.Prepare(sqlText)
	if err != nil {
		t.Fatal(err)
	}
	if after := svc2.Stats(); after.PlanCacheHits == 0 {
		t.Fatal("first Prepare after prewarm missed the plan cache")
	}
	got, err := svc2.DoPrepared(ctx, "typer", p2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("prewarmed statement result %v differs from pre-restart result %v", got, want)
	}
}
