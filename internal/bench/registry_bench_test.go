package bench

import (
	"sync"
	"testing"

	"paradigms/internal/engine"
	"paradigms/internal/logical"
	"paradigms/internal/registry"
	"paradigms/internal/storage"
)

// The CI bench smoke (`go test -bench . -benchtime 1x -run ^$
// ./internal/bench`) drives every named query through the harness entry
// point at a tiny scale factor — on both engines, and on the hybrid for
// every name with a canonical SQL text — so the benchmark path and every
// row of the named-query table cannot bitrot unexercised.

var (
	smokeOnce sync.Once
	smokeTPCH *storage.Database
	smokeSSB  *storage.Database
)

func smokeDBs() (*storage.Database, *storage.Database) {
	smokeOnce.Do(func() {
		smokeTPCH = TPCHGen(0.01)
		smokeSSB = SSBGen(0.01)
	})
	return smokeTPCH, smokeSSB
}

func BenchmarkRegistry(b *testing.B) {
	tp, sb := smokeDBs()
	for _, db := range []*storage.Database{tp, sb} {
		runs := map[string][]string{
			engine.Typer:      registry.Queries(db.Name),
			engine.Tectorwise: registry.Queries(db.Name),
			engine.Hybrid:     logical.SQLQueries(db.Name),
		}
		for _, eng := range engine.Names() {
			for _, q := range runs[eng] {
				b.Run(db.Name+"/"+eng+"/"+q, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						Run(db, eng, q, 2, 0)
					}
				})
			}
		}
	}
}
