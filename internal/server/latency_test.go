package server

import (
	"context"
	"encoding/json"
	"testing"
	"time"
)

// TestLatencyBeforeCompletion: Handle.Latency is well-defined while the
// query is still queued or running — it reports elapsed-so-far, never a
// difference against the zero finish time (which would be a huge
// negative duration).
func TestLatencyBeforeCompletion(t *testing.T) {
	fe := &fakeExec{hold: true}
	svc := New(Config{WorkerBudget: 1, Executor: fe})
	h, err := svc.Submit(context.Background(), "typer", "Q1")
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	if d := h.Latency(); d <= 0 || d > time.Minute {
		t.Errorf("in-flight Latency() = %v, want a small positive elapsed duration", d)
	}
	mid := h.Latency()
	fe.waitStarted(t, 1)
	fe.releaseOne(0)
	if _, err := h.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	final := h.Latency()
	if final < mid {
		t.Errorf("final latency %v went backwards from in-flight %v", final, mid)
	}
	if again := h.Latency(); again != final {
		t.Errorf("post-completion latency not stable: %v then %v", final, again)
	}
	svc.Close()
}

// TestStatsJSON: the machine-readable snapshot carries the counters and
// millisecond quantiles cmd/serve -statsjson emits.
func TestStatsJSON(t *testing.T) {
	svc := New(Config{Executor: &fakeExec{}})
	for i := 0; i < 3; i++ {
		if _, err := svc.Do(context.Background(), "typer", "Q1"); err != nil {
			t.Fatal(err)
		}
	}
	svc.Close()
	raw, err := json.Marshal(svc.Stats())
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("stats JSON does not round-trip: %v\n%s", err, raw)
	}
	if m["served"].(float64) != 3 {
		t.Errorf("served = %v, want 3", m["served"])
	}
	for _, key := range []string{"qps", "p50_ms", "p99_ms", "per_engine", "morsels_dispatched", "uptime_ms", "queued_high_water"} {
		if _, ok := m[key]; !ok {
			t.Errorf("stats JSON missing %q: %s", key, raw)
		}
	}
}
