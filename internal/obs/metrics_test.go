package obs

import (
	"strings"
	"testing"
)

func TestMetricsWriteTo(t *testing.T) {
	m := NewMetrics()
	m.ObserveQuery("typer", 0.0005) // le=0.001 bucket
	m.ObserveQuery("typer", 0.05)   // le=0.1 bucket
	m.ObserveQuery("tectorwise", 0.0005)
	m.ObservePipes([]PipeStat{
		{Engine: "t", Nanos: 50_000},        // 50µs → le=0.0001
		{Engine: "v", Nanos: 2_000_000},     // 2ms → le=0.01
		{Engine: "v", Nanos: 1_000_000_000}, // 1s → le=1
	})

	var b strings.Builder
	n, err := m.WriteTo(&b)
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if n != int64(len(out)) {
		t.Errorf("WriteTo reported %d bytes, wrote %d", n, len(out))
	}
	for _, want := range []string{
		`# TYPE paradigms_query_seconds histogram`,
		`paradigms_query_seconds_bucket{engine="typer",le="0.001"} 1`,
		`paradigms_query_seconds_bucket{engine="typer",le="+Inf"} 2`,
		`paradigms_query_seconds_count{engine="typer"} 2`,
		`paradigms_query_seconds_count{engine="tectorwise"} 1`,
		`# TYPE paradigms_pipeline_seconds histogram`,
		`paradigms_pipeline_seconds_bucket{backend="t",le="0.0001"} 1`,
		`paradigms_pipeline_seconds_count{backend="v"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Engines render in sorted order so scrapes are deterministic.
	if strings.Index(out, `engine="tectorwise"`) > strings.Index(out, `engine="typer"`) {
		t.Error("engines not sorted")
	}
}

func TestMetricsEmpty(t *testing.T) {
	var b strings.Builder
	n, err := NewMetrics().WriteTo(&b)
	if err != nil || n != 0 || b.Len() != 0 {
		t.Errorf("empty registry should render nothing: n=%d err=%v out=%q", n, err, b.String())
	}
}
