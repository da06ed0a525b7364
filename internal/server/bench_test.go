package server_test

// Closed-loop throughput benchmarks of the concurrent query service:
// queries/sec for 1, 4 and 16 clients on both engines, every result
// checked against the reference oracles. Run with:
//
//	go test -bench Service -benchtime 10x ./internal/server
//
// b.N counts whole queries, so ns/op is the service's per-query latency
// at that client count and qps is reported as an extra metric.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"paradigms"
)

func benchService(b *testing.B, engine paradigms.Engine, clients int) {
	tpch, ssb := testDBs()
	svc := paradigms.NewService(tpch, ssb, paradigms.ServiceOptions{
		WorkerBudget:  8,
		MaxConcurrent: 16,
	})
	defer svc.Close()

	for _, it := range workload { // warm-up
		if err := doChecked(svc, engine, it); err != nil {
			b.Fatal(err)
		}
	}

	var next int64
	var mu sync.Mutex
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next >= int64(b.N) {
			return 0, false
		}
		i := int(next)
		next++
		return i, true
	}

	b.ResetTimer()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := take()
				if !ok {
					return
				}
				if err := doChecked(svc, engine, workload[i%len(workload)]); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "queries/sec")
}

func BenchmarkService(b *testing.B) {
	for _, engine := range []paradigms.Engine{paradigms.Typer, paradigms.Tectorwise} {
		for _, clients := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("%s/clients=%d", engine, clients), func(b *testing.B) {
				benchService(b, engine, clients)
			})
		}
	}
}
