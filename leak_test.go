package paradigms

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"paradigms/internal/engine"
	"paradigms/internal/exchange"
	"paradigms/internal/logical"
	"paradigms/internal/sqlcheck"
	"paradigms/internal/storage"
)

// TestDroppedDatabaseIsCollected: a database that was catalogued —
// by the planner, by the oracle, as a shard slice — must be garbage
// once its last reference is dropped. A process-global cache keyed on
// the database pointer used to pin every instance forever.
func TestDroppedDatabaseIsCollected(t *testing.T) {
	const text = "select o_custkey, count(*) from orders, lineitem where o_orderkey = l_orderkey group by o_custkey"
	var collected atomic.Int32
	// The finalizers sit on each instance's own orders relation, not on
	// the Database: the catalog points back at its database, and a
	// cycle through a finalized object is never collected.
	watch := func(db *storage.Database) {
		runtime.SetFinalizer(db.Rel("orders"), func(*storage.Relation) { collected.Add(1) })
	}
	run := func(db *storage.Database) {
		pl, err := logical.Prepare(db, text)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := engine.Run(context.Background(), "typer", pl, engine.Options{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	}
	func() {
		db := sqlcheck.MiniTPCH(64, true)
		run(db)
		if _, err := sqlcheck.Oracle(db, text); err != nil {
			t.Fatal(err)
		}
		shards, err := exchange.Partition(db, 2, exchange.PartitionKeys(db))
		if err != nil {
			t.Fatal(err)
		}
		watch(db)
		for _, s := range shards {
			run(s)
			watch(s)
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for collected.Load() < 3 && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(time.Millisecond) // finalizers run on their own goroutine
	}
	if n := collected.Load(); n != 3 {
		t.Fatalf("%d of 3 dropped databases (base + 2 shard slices) were collected", n)
	}
}
