package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// suiteRun is one run of one workload inside a suite file.
type suiteRun struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	result
}

// summary is one end-to-end metric of one workload across a suite's
// seeds: median and quartiles by the contract's rule, and how many runs.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

// suiteFile is what -suite writes and -compare reads.
type suiteFile struct {
	Machine struct {
		NumCPU     int    `json:"nproc"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		Go         string `json:"go"`
		Kernel     string `json:"kernel"`
	} `json:"machine"`
	Commit  string                        `json:"commit"`
	SF      float64                       `json:"sf"`
	Seconds float64                       `json:"seconds"`
	Seeds   []int64                       `json:"seeds"`
	Runs    []suiteRun                    `json:"runs"`
	Summary map[string]map[string]summary `json:"summary"`
}

func parseSeeds(s string) ([]int64, error) {
	var out []int64
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f == "" {
			continue
		}
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}

// runSuite runs every workload once per seed in a process of its own (so
// peak_rss_mb is each run's), plus a traced run for traceSeeds, and
// writes the results with the machine's fingerprint.
func runSuite(path, seeds, traceSeeds string, sf, seconds float64, pass []string) error {
	all, err := parseSeeds(seeds)
	if err != nil {
		return err
	}
	traced, err := parseSeeds(traceSeeds)
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var f suiteFile
	f.Machine.NumCPU, f.Machine.GOMAXPROCS, f.Machine.Go = runtime.NumCPU(), loopClients(), runtime.Version()
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		f.Machine.Kernel = strings.TrimSpace(string(raw))
	}
	f.Commit = "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		f.Commit = strings.TrimSpace(string(out))
	}
	f.SF, f.Seconds, f.Seeds = sf, seconds, all

	one := func(w string, seed int64, trace int) error {
		args := append([]string{"-workload", w, "-seed", fmt.Sprint(seed), "-trace", fmt.Sprint(trace)}, pass...)
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("%s seed %d trace %d: %w", w, seed, trace, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		r := suiteRun{Workload: w, Seed: seed, Trace: trace == 1}
		if err := json.Unmarshal(lines[len(lines)-1], &r.result); err != nil {
			return fmt.Errorf("%s seed %d trace %d: %w", w, seed, trace, err)
		}
		fmt.Fprintf(logw, "benchmark: suite: %s seed %d trace %d: attempted %d failed %d\n", w, seed, trace, r.Attempted, r.Failed)
		f.Runs = append(f.Runs, r)
		return nil
	}
	for _, seed := range all {
		for _, w := range workloads {
			if err := one(w.name, seed, 0); err != nil {
				return err
			}
		}
	}
	for _, seed := range traced {
		for _, w := range workloads {
			if err := one(w.name, seed, 1); err != nil {
				return err
			}
		}
	}
	f.Summary = summarize(f.Runs)

	raw, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// values collects one end-to-end metric of one workload across the timed
// runs that reported it.
func values(runs []suiteRun, workload, name string) []float64 {
	var xs []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload && !r.Trace {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

func summarize(runs []suiteRun) map[string]map[string]summary {
	out := make(map[string]map[string]summary)
	for _, w := range workloads {
		out[w.name] = make(map[string]summary)
		for _, d := range endToEnd {
			xs := values(runs, w.name, d.name)
			q1, q2, q3 := quartiles(xs)
			out[w.name][d.name] = summary{Median: q2, Q1: q1, Q3: q3, N: len(xs), Unit: d.unit}
		}
	}
	return out
}
