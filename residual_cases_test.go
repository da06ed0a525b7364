package paradigms

import (
	"math"
	"sync"
	"testing"

	"paradigms/internal/sqlcheck"
	"paradigms/internal/storage"
	"paradigms/internal/types"
)

var (
	wrapOnce sync.Once
	wrapDB   *storage.Database
)

// residualDB is the database a ResidualCase's Dataset names.
func residualDB(dataset string) *storage.Database {
	tpchDB, ssbDB := sqlDBs()
	switch dataset {
	case "ssb":
		return ssbDB
	case "wrap":
		wrapOnce.Do(func() { wrapDB = wrapTPCH() })
		return wrapDB
	}
	return tpchDB
}

// TestResidualCases runs sqlcheck's expression-program cases through
// the differential harness — every engine, worker count and vector
// size against the oracle — and through 2 shards on both backends. The
// wrap cases pin that +, −, × and sum wrap modulo 2⁶⁴ in residual
// predicates, projections, grouped and global sums and over gathered
// slots, on every engine as in the oracle.
func TestResidualCases(t *testing.T) {
	for _, c := range sqlcheck.ResidualCases {
		db := residualDB(c.Dataset)
		checkDifferential(t, db, c.Text, fullGrid)
		checkSharded(t, db, c.Text, 2, nil)
	}
}

// wrapTPCH is MiniTPCH over 3079 rows (three 1024-row blocks and a
// tail) whose l_extendedprice, l_discount and o_totalprice are large
// enough that sums and products of them wrap.
func wrapTPCH() *storage.Database {
	db := sqlcheck.MiniTPCH(3*1024+7, true)
	li := db.Rel("lineitem")
	ext, disc := li.Numeric("l_extendedprice"), li.Numeric("l_discount")
	for i := range ext {
		ext[i] = types.Numeric(math.MaxInt64/5 + int64(i)*7919)
		disc[i] = types.Numeric(int64(i%11) * 1_000_003)
	}
	total := db.Rel("orders").Numeric("o_totalprice")
	for i := range total {
		total[i] = types.Numeric(math.MaxInt64/3 + int64(i)*104729)
	}
	return db
}
