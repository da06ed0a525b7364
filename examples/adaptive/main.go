// Adaptive: the §8.4 micro-adaptivity demo. Vectorized engines interpret
// queries, so they can swap execution strategies mid-flight; this example
// compares Tectorwise's generic hash aggregation against the adaptive
// ordered aggregation on Q1, across vector sizes (the optimization's
// benefit depends on the vector fitting useful per-group runs).
//
//	go run ./examples/adaptive
package main

import (
	"context"
	"fmt"
	"reflect"
	"time"

	"paradigms"
	"paradigms/internal/queries"
	"paradigms/internal/tw"
)

func main() {
	db := paradigms.GenerateTPCH(0.3, 0)
	want := queries.RefQ1(db)

	fmt.Println("Tectorwise Q1: hash aggregation vs adaptive ordered aggregation (1 thread)")
	fmt.Printf("%10s %14s %14s %9s\n", "vec size", "hash agg", "ordered agg", "speedup")
	for _, vec := range []int{256, 1000, 4096, 16384} {
		hash := best(3, func() queries.Q1Result { return tw.Q1Ctx(context.Background(), db, 1, vec) })
		ordered := best(3, func() queries.Q1Result { return tw.Q1Adaptive(db, 1, vec) })
		if got := tw.Q1Adaptive(db, 1, vec); !reflect.DeepEqual(got, want) {
			panic("adaptive variant produced a different result")
		}
		fmt.Printf("%10d %12.1fms %12.1fms %8.2fx\n",
			vec, ms(hash), ms(ordered), float64(hash)/float64(ordered))
	}
	fmt.Println("\nBoth variants return identical results; the adaptive one replaces the")
	fmt.Println("per-tuple hash-table walk with per-group selection vectors and register sums.")
}

func best(reps int, f func() queries.Q1Result) time.Duration {
	f()
	bestD := time.Duration(1<<63 - 1)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		f()
		if d := time.Since(t0); d < bestD {
			bestD = d
		}
	}
	return bestD
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
