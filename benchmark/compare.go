package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchMetric is one metric of BENCHMARK.json; per-layer ones have no bound.
type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchDef is BENCHMARK.json as -compare and the smoke test read it.
type benchDef struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

func readJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// failShare is failed over attempted across a workload's runs.
func failShare(runs []suiteRun, workload string) float64 {
	failed, attempted := 0, 0
	for _, r := range runs {
		if r.Workload == workload {
			failed, attempted = failed+r.Failed, attempted+r.Attempted
		}
	}
	return float64(failed) / float64(max(attempted, 1))
}

// sameSettings refuses a comparison of runs taken under different load:
// scale factor, window length, client count and core count all move every
// metric, so two such files are not like for like.
func sameSettings(old, cur *suiteFile) error {
	for _, c := range []struct {
		name     string
		old, cur float64
	}{
		{"sf", old.SF, cur.SF},
		{"seconds", old.Seconds, cur.Seconds},
		{"gomaxprocs", float64(old.Machine.GOMAXPROCS), float64(cur.Machine.GOMAXPROCS)},
		{"nproc", float64(old.Machine.NumCPU), float64(cur.Machine.NumCPU)},
	} {
		if c.old != c.cur {
			return fmt.Errorf("not comparable: %s is %v in the old file and %v in the new", c.name, c.old, c.cur)
		}
	}
	return nil
}

// compareFiles applies BENCHMARK.json's per-metric bounds to two suite
// files: one row per workload and end-to-end metric with both medians and
// the ratio new/old. A pair whose run-to-run spread exceeds the bound is
// unresolved, not unchanged. It reports false on a regression, on a
// workload or metric the new file lacks, or on a higher share of failed
// requests, and an error when the two files' settings differ.
func compareFiles(w io.Writer, benchPath, oldPath, newPath string) (bool, error) {
	var def benchDef
	var old, cur suiteFile
	for path, v := range map[string]any{benchPath: &def, oldPath: &old, newPath: &cur} {
		if err := readJSON(path, v); err != nil {
			return false, err
		}
	}
	if err := sameSettings(&old, &cur); err != nil {
		return false, err
	}
	ok := true
	fmt.Fprintf(w, "%-22s %-18s %14s %14s %9s %7s %7s  %s\n", "workload", "metric", "old median", "new median", "new/old", "bound", "spread", "verdict")
	for _, wl := range def.Workloads {
		for _, m := range def.EndToEnd {
			a, b := values(old.Runs, wl.Name, m.Name), values(cur.Runs, wl.Name, m.Name)
			if len(b) == 0 {
				fmt.Fprintf(w, "%-22s %-18s %14s %14s %9s %7.3f %7s  %s\n", wl.Name, m.Name, "", "", "", m.Bound, "", "MISSING")
				ok = false
				continue
			}
			_, mb, _ := quartiles(b)
			if len(a) == 0 {
				fmt.Fprintf(w, "%-22s %-18s %14s %14.4f %9s %7.3f %7.3f  %s\n", wl.Name, m.Name, "", mb, "", m.Bound, spread(b), "unresolved (no base)")
				continue
			}
			_, ma, _ := quartiles(a)
			sp := max(spread(a), spread(b))
			worse := mb > ma*(1+m.Bound)
			if m.Better == "higher" {
				worse = mb < ma*(1-m.Bound)
			}
			verdict := "ok"
			switch {
			case len(a) < 2 || len(b) < 2 || sp > m.Bound:
				verdict = "unresolved"
			case worse:
				verdict, ok = "REGRESSION", false
			}
			fmt.Fprintf(w, "%-22s %-18s %14.4f %14.4f %9.4f %7.3f %7.3f  %s\n", wl.Name, m.Name, ma, mb, mb/ma, m.Bound, sp, verdict)
		}
		if fa, fb := failShare(old.Runs, wl.Name), failShare(cur.Runs, wl.Name); fb > fa {
			fmt.Fprintf(w, "%-22s %-18s %14.6f %14.6f %9s %7s %7s  %s\n", wl.Name, "fail_share", fa, fb, "", "", "", "REGRESSION")
			ok = false
		}
	}
	return ok, nil
}
