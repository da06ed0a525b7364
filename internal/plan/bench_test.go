package plan

import (
	"context"
	"sync"
	"testing"

	"paradigms/internal/ssb"
	"paradigms/internal/storage"
	"paradigms/internal/tpch"
)

var (
	benchOnce sync.Once
	benchTPCH *storage.Database
	benchSSB  *storage.Database
)

func benchDBs() (*storage.Database, *storage.Database) {
	benchOnce.Do(func() {
		benchTPCH = tpch.Generate(0.1, 0)
		benchSSB = ssb.Generate(0.1, 0)
	})
	return benchTPCH, benchSSB
}

// BenchmarkPlanQueries tracks the ported queries' single-threaded cost:
// the operator layer must stay within a few percent of the monoliths it
// replaced (the acceptance bound of the port was 10%).
func BenchmarkPlanQueries(b *testing.B) {
	db, ssbDB := benchDBs()
	b.Run("Q18", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Q18Ctx(context.Background(), db, 1, 0)
		}
	})
	b.Run("Q5", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Q5Ctx(context.Background(), db, 1, 0)
		}
	})
	b.Run("Q2.1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			SSBQ21Ctx(context.Background(), ssbDB, 1, 0)
		}
	})
}
