// Command benchmark is the repo's benchmark: five seeded workloads over
// the real query service — both datasets, the service in its production
// configuration, the network front-end on a loopback listener in this
// process, closed-loop proto/client drivers — reporting the end-to-end
// metrics of BENCHMARK.json, and on a traced run the attribution of one
// query's time to the repo's own modules. See README.md.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash benchmark/run.sh --workload scan_adhoc --seed 1 --seconds 12 --trace 0
//	bash benchmark/run.sh --workload scan_adhoc --seed 1 --seconds 12 --trace 1
//	bash benchmark/run.sh -suite benchmark/out/new.json -seeds 1,2
//	bash benchmark/run.sh -compare benchmark/results/BENCH_12.json benchmark/out/new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// A timed run sets up this many times and reports the median as setup_s,
// and discards this much closed-loop traffic before its window opens.
const (
	setups = 3
	warmup = 1500 * time.Millisecond
)

// loopClients is the closed-loop client count, which is also GOMAXPROCS
// and the service's worker budget: the load is sized to the machine, so
// nothing queues.
func loopClients() int { return min(runtime.NumCPU(), 4) }

// logw takes the benchmark's diagnostics; results go to standard output.
var logw io.Writer = os.Stderr

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// run executes one workload once, traced or timed.
func run(cfg *config) (result, error) {
	if cfg.trace {
		return runTraced(cfg)
	}
	return runTimed(cfg)
}

// printResult prints every metric by name with its unit, then the result
// object as the last line.
func printResult(w io.Writer, defs []metricDef, r result) error {
	for _, d := range defs {
		fmt.Fprintf(w, "%-32s %16.4f %s\n", d.name, r.Metrics[d.name].Value, d.unit)
	}
	raw, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", raw)
	return err
}

func main() {
	name := flag.String("workload", "", "workload to run: scan_adhoc | join_prepared | stream_wide | tiny_frontend | sharded_materialized")
	seed := flag.Int64("seed", 1, "workload seed: fixes argument draws and query order")
	seconds := flag.Float64("seconds", 12, "length of the measured window")
	trace := flag.Int("trace", 0, "1 = traced run (per-layer metrics), 0 = timed run (end-to-end metrics)")
	sf := flag.Float64("sf", 0.5, "scale factor of both datasets")
	out := flag.String("out", "benchmark/out", "directory for traces, temporary query logs and suite results")
	suite := flag.String("suite", "", "run every workload for each of -seeds and write one result file here")
	seeds := flag.String("seeds", "1,2", "seeds of a -suite run")
	traceSeeds := flag.String("traceseeds", "1", "seeds of a -suite run that also get a traced run")
	compare := flag.Bool("compare", false, "compare two -suite result files: -compare old.json new.json")
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(2, "usage: benchmark -compare old.json new.json")
		}
		ok, err := compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(2, "%v", err)
		}
		if !ok {
			os.Exit(1)
		}
	case *suite != "":
		args := []string{"-seconds", fmt.Sprint(*seconds), "-sf", fmt.Sprint(*sf), "-out", *out}
		if err := runSuite(*suite, *seeds, *traceSeeds, *sf, *seconds, args); err != nil {
			fatal(1, "%v", err)
		}
	default:
		w := findWorkload(*name)
		if w == nil {
			fatal(2, "unknown workload %q", *name)
		}
		cfg := &config{workload: w, seed: *seed, seconds: *seconds, trace: *trace != 0, sf: *sf,
			clients: loopClients(), setups: setups, warmup: warmup, outDir: *out}
		r, err := run(cfg)
		if err != nil {
			fatal(1, "%v", err)
		}
		defs := endToEnd
		if cfg.trace {
			defs = perLayer
		}
		if err := printResult(os.Stdout, defs, r); err != nil {
			fatal(1, "%v", err)
		}
	}
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(code)
}
