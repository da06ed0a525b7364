// Command repro regenerates the tables and figures of "Everything You
// Always Wanted to Know About Compiled and Vectorized Queries But Were
// Afraid to Ask" (VLDB 2018).
//
// Usage:
//
//	repro -exp fig3 [-sf 1] [-ssbsf 1] [-threads 0] [-reps 3]
//	repro -exp all -sf 0.1        # quick pass over every experiment
//	repro -list
//
// Experiment ids mirror the paper: fig3..fig12, table1..table6, ssb, ec2,
// plus the §8 demos (compile, profiling, adaptivity, oltp) and the
// design-choice ablations (ablation). See DESIGN.md for the experiment
// index and EXPERIMENTS.md for recorded paper-vs-measured results.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"paradigms/internal/bench"
	"paradigms/internal/microsim"
	"paradigms/internal/storage"
)

func main() {
	exp := flag.String("exp", "", "experiment id (or 'all')")
	list := flag.Bool("list", false, "list experiment ids")
	sf := flag.Float64("sf", 1, "TPC-H scale factor")
	ssbsf := flag.Float64("ssbsf", 1, "SSB scale factor")
	simSF := flag.Float64("simsf", 0.1, "scale factor for simulator-based experiments")
	threads := flag.Int("threads", 0, "max threads (0 = GOMAXPROCS)")
	reps := flag.Int("reps", 3, "timing repetitions (best of)")
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(bench.SortedExperimentNames(), "\n"))
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "repro: -exp required (try -list)")
		os.Exit(2)
	}
	cfg := bench.Config{SF: *sf, SSBSF: *ssbsf, Threads: *threads, Reps: *reps}
	if cfg.Threads == 0 {
		cfg.Threads = runtime.GOMAXPROCS(0)
	}

	var tpchDB, ssbDB, simDB *storage.Database
	getTPCH := func() *storage.Database {
		if tpchDB == nil {
			fmt.Fprintf(os.Stderr, "generating TPC-H SF=%g...\n", cfg.SF)
			tpchDB = bench.TPCHGen(cfg.SF)
		}
		return tpchDB
	}
	getSSB := func() *storage.Database {
		if ssbDB == nil {
			fmt.Fprintf(os.Stderr, "generating SSB SF=%g...\n", cfg.SSBSF)
			ssbDB = bench.SSBGen(cfg.SSBSF)
		}
		return ssbDB
	}
	getSim := func() *storage.Database {
		if simDB == nil {
			fmt.Fprintf(os.Stderr, "generating TPC-H SF=%g (simulator)...\n", *simSF)
			simDB = bench.TPCHGen(*simSF)
		}
		return simDB
	}

	run := func(id string) {
		switch id {
		case "fig3":
			fmt.Print(bench.Fig3(getTPCH(), cfg))
		case "table1":
			fmt.Print(bench.Table1Text(getSim()))
		case "fig4":
			fmt.Print(bench.Fig4Text([]float64{0.1, 0.3, 1}))
		case "fig5":
			fmt.Print(bench.Fig5Text(getTPCH(), cfg))
		case "ssb":
			fmt.Print(bench.SSBText(getSSB(), cfg))
		case "table2":
			fmt.Print(bench.Table2Text(getTPCH(), cfg))
		case "fig6":
			fmt.Print(bench.Fig6Text(cfg))
		case "fig7":
			fmt.Print(bench.Fig7Text())
		case "fig8":
			fmt.Print(bench.Fig8Text(getTPCH(), cfg))
		case "fig9":
			fmt.Print(bench.Fig9Text(cfg, 256<<20))
		case "fig10":
			fmt.Print(bench.Fig10Text(getSim()))
		case "table3":
			n := runtime.GOMAXPROCS(0)
			steps := []int{1}
			for _, s := range []int{n / 2, n, 2 * n} {
				if s > steps[len(steps)-1] {
					steps = append(steps, s)
				}
			}
			fmt.Print(bench.Table3Text(getTPCH(), steps, cfg))
		case "table4":
			fmt.Print(bench.Table4Text())
		case "table5":
			fmt.Print(bench.Table5Text(getTPCH(), "", cfg))
		case "fig11":
			fmt.Print(bench.FigHWText(getSim(),
				[]microsim.HW{microsim.Skylake, microsim.Threadripper}, false))
		case "fig12":
			fmt.Print(bench.FigHWText(getSim(),
				[]microsim.HW{microsim.Skylake, microsim.KNL}, true))
		case "table6":
			fmt.Print(bench.Table6Text())
		case "ec2":
			fmt.Print(bench.EC2Text())
		case "compile":
			fmt.Print(bench.CompileText())
		case "profiling":
			fmt.Print(bench.ProfilingText(getTPCH(), cfg))
		case "adaptivity":
			fmt.Print(bench.AdaptivityText(getTPCH(), cfg))
		case "oltp":
			fmt.Print(bench.OLTPText(cfg))
		case "ablation":
			fmt.Print(bench.AblationText(getTPCH(), cfg))
		default:
			fmt.Fprintf(os.Stderr, "repro: unknown experiment %q (try -list)\n", id)
			os.Exit(2)
		}
		fmt.Println()
	}

	if *exp == "all" {
		for _, id := range bench.SortedExperimentNames() {
			fmt.Printf("=== %s ===\n", id)
			run(id)
		}
		return
	}
	for _, id := range strings.Split(*exp, ",") {
		run(strings.TrimSpace(id))
	}
}
