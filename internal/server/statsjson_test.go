package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite the statsz JSON golden file")

// TestStatsJSONGolden pins the /statsz wire shape: a fully populated
// snapshot with fixed values must marshal byte-for-byte to the golden
// file, so renaming or reordering a metric is a deliberate,
// diff-reviewed act. Map keys marshal sorted (encoding/json), so the
// rendering is deterministic without a fixed clock beyond the literal
// durations below.
func TestStatsJSONGolden(t *testing.T) {
	st := Stats{
		Submitted: 120,
		Served:    100, Failed: 5, Canceled: 10, Rejected: 5,
		PreparedServed: 40,
		StreamedServed: 25,
		Tenants: map[string]TenantStats{
			"default": {
				Served: 60, Failed: 2, Canceled: 6, Rejected: 1, Streamed: 15,
				Running: 1, Queued: 2, Weight: 1,
				P50: 2 * time.Millisecond, P95: 9 * time.Millisecond,
				P99: 12 * time.Millisecond, Max: 30 * time.Millisecond,
			},
			"heavy": {
				Served: 40, Failed: 3, Canceled: 4, Rejected: 4, Streamed: 10,
				Running: 2, Queued: 5, Weight: 4,
				P50: 8 * time.Millisecond, P95: 40 * time.Millisecond,
				P99: 55 * time.Millisecond, Max: 90 * time.Millisecond,
			},
		},
		PerEngine: map[string]uint64{
			"typer": 50, "tectorwise": 30, "hybrid": 20,
		},
		Counters: Counters{
			PlanCacheHits: 35, PlanCacheMisses: 5, PlanCacheEvictions: 1,
			ExchangeScattered: 28, ExchangeSingleShard: 2, ExchangeFallback: 0,
		},
		InFlight: 3, Queued: 7, QueuedHighWater: 12,
		P50: 3 * time.Millisecond, P95: 20 * time.Millisecond,
		P99: 45 * time.Millisecond, Max: 90 * time.Millisecond,
		MorselsDispatched: 123456,
		Uptime:            10 * time.Second,
	}
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := json.Indent(&buf, raw, "", "  "); err != nil {
		t.Fatal(err)
	}
	buf.WriteByte('\n')

	path := filepath.Join("testdata", "statsz.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("statsz JSON drifted from golden (run with -update if deliberate)\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestStatsJSONDeterministic marshals the same snapshot repeatedly —
// map iteration randomness must not leak into the wire bytes.
func TestStatsJSONDeterministic(t *testing.T) {
	st := Stats{
		Served: 2,
		PerEngine: map[string]uint64{
			"typer": 1, "tectorwise": 1, "hybrid": 0, "auto": 0,
		},
		Tenants: map[string]TenantStats{"a": {}, "b": {}, "c": {}, "d": {}},
	}
	first, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		got, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, got) {
			t.Fatalf("marshal %d differs:\n%s\n%s", i, first, got)
		}
	}
}
