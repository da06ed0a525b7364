package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestMain(m *testing.M) {
	logw = io.Discard
	os.Exit(m.Run())
}

func readBench(t *testing.T) benchDef {
	t.Helper()
	var b benchDef
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// checkMetrics asserts a run emitted exactly the metrics BENCHMARK.json
// names, each once (a JSON object cannot hold one twice) and with its unit.
func checkMetrics(t *testing.T, r result, want []benchMetric) {
	t.Helper()
	if len(r.Metrics) != len(want) {
		t.Errorf("emitted %d metrics, BENCHMARK.json names %d", len(r.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := r.Metrics[m.Name]
		switch {
		case !nameRE.MatchString(m.Name):
			t.Errorf("metric name %q is not a contract name", m.Name)
		case !ok:
			t.Errorf("metric %s not emitted", m.Name)
		case got.Unit == "" || got.Unit != m.Unit:
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
	}
	if r.Failed != 0 || !r.Correct || r.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d, want a clean run", r.Correct, r.Attempted, r.Failed)
	}
}

// TestSmoke runs every workload at SF 0.01: a one-second timed run and a
// short traced run, then -compare of the results with themselves.
func TestSmoke(t *testing.T) {
	bench := readBench(t)
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bench.Workloads), len(workloads))
	}
	out := t.TempDir()
	var suite suiteFile
	for i, bw := range bench.Workloads {
		w := findWorkload(bw.Name)
		if w == nil || w != &workloads[i] {
			t.Fatalf("workload %d of BENCHMARK.json is %q, the benchmark has %q", i, bw.Name, workloads[i].name)
		}
		if !nameRE.MatchString(bw.Name) || bw.Why != w.why {
			t.Errorf("workload %s: name or why differs from the benchmark's", bw.Name)
		}
		cfg := &config{workload: w, seed: int64(i + 1), seconds: 1, sf: 0.01, clients: 2, setups: 1,
			warmup: 100 * time.Millisecond, outDir: out}
		timed, err := run(cfg)
		if err != nil {
			t.Fatalf("%s timed: %v", w.name, err)
		}
		checkMetrics(t, timed, bench.EndToEnd)
		for _, seed := range []int64{1, 2} {
			suite.Runs = append(suite.Runs, suiteRun{Workload: w.name, Seed: seed, result: timed})
		}

		cfg.trace, cfg.seconds = true, 0.5
		traced, err := run(cfg)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		checkMetrics(t, traced, bench.PerLayer)
		if n := traced.Metrics["trace.queries"].Value; n < 20 {
			t.Errorf("%s: traced replay ran %v queries, want at least 20", w.name, n)
		}
		if scattered := traced.Metrics["exchange.scattered"].Value; (scattered > 0) != (w.shards > 1) {
			t.Errorf("%s: exchange.scattered = %v with %d shards", w.name, scattered, w.shards)
		}
		if _, err := os.Stat(filepath.Join(out, "trace_"+w.name+".json")); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}

	write := func(name string, f suiteFile) string {
		t.Helper()
		path := filepath.Join(out, name)
		raw, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	compare := func(oldPath, newPath string) (bool, error) {
		return compareFiles(io.Discard, filepath.Join("..", "BENCHMARK.json"), oldPath, newPath)
	}
	path := write("suite.json", suite)
	if ok, err := compare(path, path); err != nil || !ok {
		t.Errorf("-compare of a file with itself: ok=%v err=%v", ok, err)
	}

	// The gate must not pass by comparing nothing: a new file without one
	// of the workloads, or without one of the metrics, fails.
	fewer := suite
	fewer.Runs = suite.Runs[2:]
	if ok, err := compare(path, write("fewer.json", fewer)); err != nil || ok {
		t.Errorf("-compare passed a file that lacks a workload: ok=%v err=%v", ok, err)
	}
	thinner := suite
	thinner.Runs = nil
	for _, r := range suite.Runs {
		r.Metrics = map[string]metric{"qps": r.Metrics["qps"]}
		thinner.Runs = append(thinner.Runs, r)
	}
	if ok, err := compare(path, write("thinner.json", thinner)); err != nil || ok {
		t.Errorf("-compare passed a file that lacks metrics: ok=%v err=%v", ok, err)
	}
	// Nor does it compare runs taken under different load.
	for name, change := range map[string]func(*suiteFile){
		"sf":         func(f *suiteFile) { f.SF = 1 },
		"seconds":    func(f *suiteFile) { f.Seconds = 20 },
		"gomaxprocs": func(f *suiteFile) { f.Machine.GOMAXPROCS = 4 },
		"nproc":      func(f *suiteFile) { f.Machine.NumCPU = 8 },
	} {
		other := suite
		change(&other)
		if _, err := compare(path, write("other.json", other)); err == nil {
			t.Errorf("-compare accepted files whose %s differ", name)
		}
	}
}

// TestQuartilesMatchPython pins the quartile rule to the contract's
// statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 7, 3, 9, 4, 8, 2, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// TestSelfTimes checks self time subtracts the union of child intervals.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "query", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "b", Start: 30, End: 60, OffPath: true},
		{ID: 3, Parent: 1, Name: "c", Start: 10, End: 20},
	}
	self := selfTimes(spans)
	if self[0] != 50 || self[1] != 20 || self[3] != 10 {
		t.Errorf("self = %v, want [50 20 30 10]", self)
	}
	byName, total := selfByName(spans, "query")
	if total != 100 || byName["b"] != 0 || byName["a"] != 20 || byName["c"] != 10 {
		t.Errorf("byName = %v total %d", byName, total)
	}
}
