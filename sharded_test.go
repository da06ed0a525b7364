package paradigms

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"paradigms/internal/engine"
	"paradigms/internal/exchange"
	"paradigms/internal/logical"
	"paradigms/internal/obs"
	"paradigms/internal/proto"
	"paradigms/internal/proto/client"
	"paradigms/internal/sqlcheck"
	"paradigms/internal/storage"
)

// The sharded differential harness: the same generated corpus the
// single-process engines are proven on, executed through the exchange
// path — range-partitioned shards, per-shard partial execution on both
// backends, coordinator gather/merge — against the naive oracle.

type clusterKey struct {
	db *storage.Database
	n  int
}

var (
	clusterMu  sync.Mutex
	clusterMap = map[clusterKey]*exchange.Cluster{}
)

// clusterFor builds (once per database × shard count) the shared
// cluster the sharded tests run against — partitioning the corpus
// databases is the expensive step, the queries are cheap.
func clusterFor(t testing.TB, db *storage.Database, n int) *exchange.Cluster {
	t.Helper()
	clusterMu.Lock()
	defer clusterMu.Unlock()
	k := clusterKey{db, n}
	if cl, ok := clusterMap[k]; ok {
		return cl
	}
	cl, err := exchange.New(db, n)
	if err != nil {
		t.Fatalf("exchange.New(n=%d): %v", n, err)
	}
	clusterMap[k] = cl
	return cl
}

// checkSharded runs one SQL text through an n-shard cluster on both
// backends and fails on any mismatch with the oracle; a non-nil seen
// tallies the layouts the shards' pipelines ran with.
func checkSharded(t *testing.T, db *storage.Database, text string, n int, seen layoutTally) {
	t.Helper()
	want, err := sqlcheck.Oracle(db, text)
	if err != nil {
		t.Fatalf("oracle failed for %q: %v", text, err)
	}
	cl := clusterFor(t, db, n)
	for _, engine := range []string{engine.Typer, engine.Tectorwise} {
		col := obs.NewCollector()
		ctx := obs.WithCollector(context.Background(), col)
		res, err := cl.Run(ctx, exchange.Request{SQL: text, Engine: engine, Workers: 4, VecSize: 1000})
		seen.add(col.Pipes())
		if err != nil {
			t.Fatalf("sharded %s n=%d failed for %q: %v", engine, n, text, err)
		}
		if !sqlcheck.SameRows(res.Rows, want) {
			t.Errorf("sharded %s n=%d differs from oracle for %q\n got %v\nwant %v",
				engine, n, text, clip(res.Rows), clip(want))
		}
	}
}

// TestSQLShardedDifferentialCorpus is the acceptance bar of the
// sharded path: the full 200-query corpus (alternating TPC-H and SSB
// schemas), each query fanned out over 2 shards on both backends and
// compared with the oracle — zero mismatches.
func TestSQLShardedDifferentialCorpus(t *testing.T) {
	tpchDB, ssbDB := sqlDBs()
	for seed := int64(0); seed < 200; seed++ {
		db := tpchDB
		if seed%2 == 1 {
			db = ssbDB
		}
		text := sqlcheck.Generate(rand.New(rand.NewSource(seed)), db)
		checkSharded(t, db, text, 2, nil)
	}
}

// TestShardedGridSmoke is the CI shard-count grid: a corpus slice
// through N ∈ {1, 2, 8} shards, so degenerate (one shard) and sparse
// (more shards than some key ranges) fan-outs stay covered.
func TestShardedGridSmoke(t *testing.T) {
	tpchDB, ssbDB := sqlDBs()
	seen := layoutTally{}
	for _, n := range []int{1, 2, 8} {
		for seed := int64(0); seed < 25; seed++ {
			db := tpchDB
			if seed%2 == 1 {
				db = ssbDB
			}
			text := sqlcheck.Generate(rand.New(rand.NewSource(seed)), db)
			checkSharded(t, db, text, n, seen)
		}
	}
	seen.requireBothSides(t)
}

// TestServiceSharded: the service option wires the exchange in — a
// service built with Shards > 1 answers distributable ad-hoc SQL on
// both engines through the sharded path, transparently: same results
// as the oracle, and non-distributable texts keep working through the
// single-process path.
func TestServiceSharded(t *testing.T) {
	tpchDB, ssbDB := sqlDBs()
	svc := NewService(tpchDB, ssbDB, ServiceOptions{Shards: 3})
	defer svc.Close()
	ctx := context.Background()

	cases := []struct {
		db   *storage.Database
		text string
	}{
		// Scatters: co-partitioned fact join with grouped aggregation.
		{tpchDB, "select o_orderkey, sum(l_extendedprice), count(*) from lineitem, orders where l_orderkey = o_orderkey group by o_orderkey order by o_orderkey limit 7"},
		// Routes to the SSB database; lo_custkey-partitioned scan.
		{ssbDB, "select sum(lo_revenue) from lineorder where lo_discount between 1 and 3"},
		// Replicated-only: pins to one shard.
		{tpchDB, "select count(*) from nation"},
	}
	for _, tc := range cases {
		db, text := tc.db, tc.text
		want, err := sqlcheck.Oracle(db, text)
		if err != nil {
			t.Fatalf("oracle for %q: %v", text, err)
		}
		for _, engine := range []Engine{Typer, Tectorwise} {
			res, err := svc.Do(ctx, string(engine), text)
			if err != nil {
				t.Fatalf("%s %q: %v", engine, text, err)
			}
			rows := res.(*logical.Result).Rows
			if !sqlcheck.SameRows(rows, want) {
				t.Errorf("%s sharded service differs for %q\n got %v\nwant %v", engine, text, clip(rows), clip(want))
			}
		}
	}

	// The service is SQL-only: a registered query name is turned away at
	// the door with a pointer to where names do run.
	if _, err := svc.Do(ctx, string(Typer), "Q6"); err == nil || !strings.Contains(err.Error(), "paradigms.Run") {
		t.Fatalf("registered query name through the service: err = %v, want a rejection naming paradigms.Run", err)
	}
}

// TestShardedOneShardBitIdentical: an N=1 cluster shares the base
// database with its single shard and merges one partial, so its result
// must match single-process execution bit-identically — row order
// included — on both backends. Single-worker execution keeps the
// concatenation order deterministic on both sides.
func TestShardedOneShardBitIdentical(t *testing.T) {
	tpchDB, ssbDB := sqlDBs()
	ctx := context.Background()
	for seed := int64(0); seed < 40; seed++ {
		db := tpchDB
		if seed%2 == 1 {
			db = ssbDB
		}
		text := sqlcheck.Generate(rand.New(rand.NewSource(seed)), db)
		cl := clusterFor(t, db, 1)

		pl, err := logical.Prepare(db, text)
		if err != nil {
			t.Fatalf("prepare failed for %q: %v", text, err)
		}
		for _, name := range []string{engine.Typer, engine.Tectorwise} {
			want, err := engine.Run(ctx, name, pl, engine.Options{Workers: 1, VecSize: 1000})
			if err != nil {
				t.Fatalf("%s failed for %q: %v", name, text, err)
			}
			got, err := cl.Run(ctx, exchange.Request{SQL: text, Engine: name, Workers: 1, VecSize: 1000})
			if err != nil {
				t.Fatalf("sharded %s failed for %q: %v", name, text, err)
			}
			if !reflect.DeepEqual(got.Rows, want.Result.Rows) {
				t.Errorf("%s n=1 not bit-identical for %q\n got %v\nwant %v", name, text, clip(got.Rows), clip(want.Result.Rows))
			}
		}
	}
}

// BenchmarkShardedVsSingle measures the exchange overhead and scaling
// of the sharded path against plain single-process execution on a
// grouped fact-table join — the shape the distribute rewrite scatters.
// In-process, sharding splits the same worker budget across shards, so
// this is an overhead/scaling probe, not a speedup claim.
func BenchmarkShardedVsSingle(b *testing.B) {
	tpchDB, _ := sqlDBs()
	const text = "select o_orderkey, sum(l_extendedprice), count(*) from lineitem, orders where l_orderkey = o_orderkey group by o_orderkey"
	ctx := context.Background()
	b.Run("single", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := RunContext(ctx, tpchDB, Typer, text, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, n := range []int{2, 4} {
		cl, err := exchange.New(tpchDB, n)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("sharded-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := cl.Run(ctx, exchange.Request{SQL: text, Engine: engine.Typer}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestShardsLiveOnTheWire: -shards reaches network clients. The
// protocol server streams every response and prepares on request, so
// an HTTP client exercises exactly the request forms that used to stay
// single-process: the README's sharded query, ad-hoc and prepared (bare
// and with a placeholder), must match the oracle on both sharded
// engines, and /statsz must show the requests scattering with nothing
// falling back.
func TestShardsLiveOnTheWire(t *testing.T) {
	tpchDB, _ := sqlDBs()
	svc := NewService(tpchDB, nil, ServiceOptions{Shards: 2})
	defer svc.Close()
	ts := httptest.NewServer(proto.NewServer(svc, nil).Handler())
	defer ts.Close()
	cl := client.New(ts.URL, "wire")
	ctx := context.Background()

	const readme = "select o_orderkey, sum(l_extendedprice) from lineitem, orders where l_orderkey = o_orderkey group by o_orderkey order by o_orderkey limit 3"
	const param = "select o_orderkey, sum(l_extendedprice) from lineitem, orders where l_orderkey = o_orderkey and o_orderkey > ? group by o_orderkey order by o_orderkey limit 3"
	for _, tc := range []struct {
		label, text string
		prepared    bool
		args        []string
	}{
		{"ad-hoc", readme, false, nil},
		{"prepared", readme, true, nil},
		{"prepared-args", param, true, []string{"100"}},
	} {
		want, err := sqlcheck.Oracle(tpchDB, sqlcheck.Substitute(tc.text, tc.args))
		if err != nil {
			t.Fatalf("oracle for %q: %v", tc.text, err)
		}
		for _, engine := range []string{engine.Typer, engine.Tectorwise} {
			var rows *client.Rows
			if tc.prepared {
				rows, err = cl.QueryPrepared(ctx, engine, tc.text, tc.args...)
			} else {
				rows, err = cl.Query(ctx, engine, tc.text)
			}
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.label, engine, err)
			}
			got, err := rows.All()
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.label, engine, err)
			}
			if !sqlcheck.SameRows(got, want) || rows.Engine() != engine {
				t.Errorf("%s/%s over the wire: engine %q, rows %v, want %v", tc.label, engine, rows.Engine(), clip(got), clip(want))
			}
		}
	}

	raw, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Streamed  uint64  `json:"streamed_served"`
		Prepared  uint64  `json:"prepared_served"`
		Scattered uint64  `json:"exchange_scattered"`
		Fallback  *uint64 `json:"exchange_fallback"`
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("statsz: %v\n%s", err, raw)
	}
	if st.Streamed != 6 || st.Prepared != 4 || st.Scattered != 6 || st.Fallback == nil || *st.Fallback != 0 {
		t.Errorf("/statsz after 6 streamed requests (4 prepared): %s", raw)
	}
}
