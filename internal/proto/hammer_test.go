package proto_test

import (
	"context"
	"math/rand"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"paradigms"
	"paradigms/internal/proto"
	"paradigms/internal/proto/client"
	"paradigms/internal/server"
)

// hammerQueries is the mixed corpus: short scans, grouped aggregates,
// and a three-way join — enough shape variety that mid-stream faults
// land in scans, merges, and projections alike.
var hammerQueries = []string{
	"SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem WHERE l_discount >= 0.05 AND l_discount <= 0.07 AND l_quantity < 24",
	"SELECT o_custkey, COUNT(*), SUM(o_totalprice) FROM orders GROUP BY o_custkey",
	// Intentionally unplannable (column not in the SQL catalog): keeps
	// the clean pre-stream failure path (HTTP 422) in the mix.
	"SELECT o_orderpriority, COUNT(*) FROM orders GROUP BY o_orderpriority",
	"SELECT l_orderkey, SUM(l_extendedprice) FROM customer, orders, lineitem WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey AND o_orderdate < date '1995-03-15' GROUP BY l_orderkey",
}

var hammerPrepared = []struct {
	text string
	args func(*rand.Rand) []string
}{
	{
		"SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem WHERE l_discount >= ? AND l_quantity < ?",
		func(r *rand.Rand) []string {
			return []string{[]string{"0.03", "0.05", "0.07"}[r.Intn(3)], []string{"10", "24", "40"}[r.Intn(3)]}
		},
	},
	{
		"SELECT l_orderkey, COUNT(*) FROM lineitem WHERE l_quantity < ? GROUP BY l_orderkey",
		func(r *rand.Rand) []string { return []string{[]string{"5", "20", "50"}[r.Intn(3)]} },
	},
}

// TestHammerFaultInjection floods the network front-end from concurrent
// clients mixing ad-hoc and prepared queries across engines, with
// random mid-stream disconnects and context cancellations, then checks
// the server's books balance exactly: every submission that got an id
// ends in exactly one of Served/Failed/Canceled, nothing in flight,
// nothing queued, and no goroutines leaked. Run under -race in CI.
func TestHammerFaultInjection(t *testing.T) {
	if testing.Short() {
		t.Skip("hammer test skipped in -short mode")
	}
	tpchDB := paradigms.GenerateTPCH(0.01, 0)
	svc := paradigms.NewService(tpchDB, nil, paradigms.ServiceOptions{
		MaxConcurrent: 4,
		MaxQueued:     64,
	})
	ts := httptest.NewServer(proto.NewServer(svc, nil).Handler())

	before := runtime.NumGoroutine()

	const (
		clients       = 8
		perClient     = 60
		pCancel       = 3 // 1 in pCancel queries gets a tight deadline
		pDisconnect   = 3 // 1 in pDisconnect of the rest disconnects mid-stream
		engineChoices = 2
	)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(c)))
			cl := client.New(ts.URL, "hammer")
			cl.HTTP = ts.Client()
			for i := 0; i < perClient; i++ {
				engine := []string{"typer", "tectorwise"}[rnd.Intn(engineChoices)]
				ctx := context.Background()
				cancel := context.CancelFunc(func() {})
				if rnd.Intn(pCancel) == 0 {
					// Deadline inside the query's runtime: lands while
					// queued, mid-scan, or mid-stream at random.
					ctx, cancel = context.WithTimeout(ctx, time.Duration(rnd.Intn(4000))*time.Microsecond)
				}

				var rows *client.Rows
				var err error
				if rnd.Intn(2) == 0 {
					p := hammerPrepared[rnd.Intn(len(hammerPrepared))]
					eng := engine
					if rnd.Intn(2) == 0 {
						eng = "auto"
					}
					rows, err = cl.QueryPrepared(ctx, eng, p.text, p.args(rnd)...)
				} else {
					rows, err = cl.Query(ctx, engine, hammerQueries[rnd.Intn(len(hammerQueries))])
				}
				if err == nil {
					if rnd.Intn(pDisconnect) == 0 {
						rows.Next()  // maybe pull one batch...
						rows.Close() // ...then hang up mid-stream
					} else {
						_, err = rows.All()
					}
				}
				// Every error class is legitimate here — rejections,
				// cancellations, truncated streams. The books below are
				// the real assertion.
				_ = err
				cancel()
			}
		}(c)
	}
	wg.Wait()

	// Disconnected queries may still be draining server-side; wait for
	// the in-flight count to settle before closing the books.
	deadline := time.Now().Add(10 * time.Second)
	var st server.Stats
	for {
		st = svc.Stats()
		if st.InFlight == 0 && st.Queued == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("in flight %d queued %d after drain deadline", st.InFlight, st.Queued)
		}
		time.Sleep(5 * time.Millisecond)
	}

	if st.Submitted == 0 {
		t.Fatal("no submissions recorded")
	}
	if got := st.Served + st.Failed + st.Canceled; got != st.Submitted {
		t.Errorf("books do not balance: submitted %d != served %d + failed %d + canceled %d = %d",
			st.Submitted, st.Served, st.Failed, st.Canceled, got)
	}
	if ht, ok := st.Tenants["hammer"]; !ok || ht.Served == 0 {
		t.Errorf("hammer tenant missing from per-tenant stats: %+v", st.Tenants)
	}

	ts.Close()
	svc.Close()

	// Goroutine leak check: give keep-alive and drain goroutines a
	// moment to exit, then compare against the pre-hammer baseline.
	leakDeadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			break
		}
		if time.Now().After(leakDeadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
