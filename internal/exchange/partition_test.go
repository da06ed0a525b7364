package exchange

import (
	"bytes"
	"math"
	"math/big"
	"math/rand"
	"testing"
	"unsafe"

	"paradigms/internal/sqlcheck"
	"paradigms/internal/ssb"
	"paradigms/internal/storage"
	"paradigms/internal/tpch"
	"paradigms/internal/types"
)

// wordOf is a key cell as a key word: 32-bit values zero-extended.
func wordOf(c *storage.Column, i int) uint64 {
	switch c.Type {
	case storage.Int32:
		return uint64(uint32(c.I32[i]))
	case storage.Date:
		return uint64(uint32(c.Dat[i]))
	case storage.Int64:
		return uint64(c.I64[i])
	case storage.Numeric:
		return uint64(c.Num[i])
	}
	panic("not a key column: " + c.Name)
}

// oracleShard is the range a word belongs to, in big integers:
// floor((w−lo)·n / (hi−lo+1)).
func oracleShard(w, lo, hi uint64, n int) int {
	num := new(big.Int).SetUint64(w - lo)
	num.Mul(num, big.NewInt(int64(n)))
	span := new(big.Int).SetUint64(hi - lo)
	span.Add(span, big.NewInt(1))
	return int(num.Div(num, span).Int64())
}

// domain is the key-word domain shared by every partitioned relation.
func domain(db *storage.Database, keys map[string]string) (lo, hi uint64) {
	lo = math.MaxUint64
	for name, key := range keys {
		c := db.Rel(name).Column(key)
		for i := 0; i < c.Len(); i++ {
			lo, hi = min(lo, wordOf(c, i)), max(hi, wordOf(c, i))
		}
	}
	return lo, hi
}

func cellEqual(a *storage.Column, i int, b *storage.Column, j int) bool {
	switch a.Type {
	case storage.Int32:
		return a.I32[i] == b.I32[j]
	case storage.Int64:
		return a.I64[i] == b.I64[j]
	case storage.Numeric:
		return a.Num[i] == b.Num[j]
	case storage.Date:
		return a.Dat[i] == b.Dat[j]
	case storage.Byte:
		return a.B[i] == b.B[j]
	case storage.String:
		return bytes.Equal(a.Str.Get(i), b.Str.Get(j))
	}
	return false
}

// checkRangeSplit asserts the exact placement of every partitioned
// relation: shard s holds exactly the base rows whose key word falls in
// range s of the database's domain, in base order, every column equal
// — so rows are conserved and every key lies in its shard's range.
func checkRangeSplit(t *testing.T, db *storage.Database, shards []*storage.Database, keys map[string]string) {
	t.Helper()
	lo, hi := domain(db, keys)
	n := len(shards)
	for name, key := range keys {
		base := db.Rel(name)
		kc := base.Column(key)
		want := make([][]int, n)
		for i := 0; i < base.Rows(); i++ {
			s := oracleShard(wordOf(kc, i), lo, hi, n)
			want[s] = append(want[s], i)
		}
		total := 0
		for s, sdb := range shards {
			rel := sdb.Rel(name)
			total += rel.Rows()
			if rel.Rows() != len(want[s]) {
				t.Fatalf("%s shard %d holds %d rows, its range holds %d", name, s, rel.Rows(), len(want[s]))
			}
			sk := rel.Column(key)
			for j := 0; j < rel.Rows(); j++ {
				if got := oracleShard(wordOf(sk, j), lo, hi, n); got != s {
					t.Fatalf("%s key word %#x sits on shard %d, its range is %d", name, wordOf(sk, j), s, got)
				}
			}
			for ci, c := range base.Columns() {
				sc := rel.Columns()[ci]
				if sc.Name != c.Name || sc.Type != c.Type || sc.Len() != rel.Rows() {
					t.Fatalf("%s shard %d column %d is %s %s with %d values", name, s, ci, sc.Name, sc.Type, sc.Len())
				}
				for j, i := range want[s] {
					if !cellEqual(sc, j, c, i) {
						t.Fatalf("%s shard %d row %d column %s differs from base row %d", name, s, j, c.Name, i)
					}
				}
			}
		}
		if total != base.Rows() {
			t.Fatalf("%s: shards hold %d rows, base has %d", name, total, base.Rows())
		}
	}
}

// data returns the address, length and capacity of a column's values
// (a string column's offsets).
func data(c *storage.Column) (p unsafe.Pointer, n, capacity int) {
	switch c.Type {
	case storage.Int32:
		return unsafe.Pointer(unsafe.SliceData(c.I32)), len(c.I32), cap(c.I32)
	case storage.Int64:
		return unsafe.Pointer(unsafe.SliceData(c.I64)), len(c.I64), cap(c.I64)
	case storage.Numeric:
		return unsafe.Pointer(unsafe.SliceData(c.Num)), len(c.Num), cap(c.Num)
	case storage.Date:
		return unsafe.Pointer(unsafe.SliceData(c.Dat)), len(c.Dat), cap(c.Dat)
	case storage.Byte:
		return unsafe.Pointer(unsafe.SliceData(c.B)), len(c.B), cap(c.B)
	case storage.String:
		return unsafe.Pointer(unsafe.SliceData(c.Str.Offsets)), len(c.Str.Offsets), cap(c.Str.Offsets)
	}
	panic("unknown column type")
}

// checkViews asserts that every column of every non-empty shard of the
// relation aliases the base column at the shard's first row, with its
// capacity capped at its length.
func checkViews(t *testing.T, name string, db *storage.Database, shards []*storage.Database) {
	t.Helper()
	base := db.Rel(name)
	cut := 0
	for s, sdb := range shards {
		rel := sdb.Rel(name)
		for ci, c := range base.Columns() {
			p, n, capacity := data(rel.Columns()[ci])
			bp, _, _ := data(c)
			width := c.Type.Width()
			if n != capacity {
				t.Fatalf("%s shard %d column %s has len %d, cap %d: appending would write into the next shard", name, s, c.Name, n, capacity)
			}
			if rel.Rows() > 0 && p != unsafe.Add(bp, cut*width) {
				t.Fatalf("%s shard %d column %s does not alias the base column at row %d", name, s, c.Name, cut)
			}
		}
		cut += rel.Rows()
	}
}

// checkCopied asserts that no shard column of the relation points into
// its base column.
func checkCopied(t *testing.T, name string, db *storage.Database, shards []*storage.Database) {
	t.Helper()
	base := db.Rel(name)
	for s, sdb := range shards {
		rel := sdb.Rel(name)
		for ci, c := range base.Columns() {
			p, n, _ := data(rel.Columns()[ci])
			bp, bn, _ := data(c)
			lo, hi := uintptr(bp), uintptr(bp)+uintptr(bn*c.Type.Width())
			if n > 0 && uintptr(p) >= lo && uintptr(p) < hi {
				t.Fatalf("%s shard %d column %s aliases its base column; want a copy", name, s, c.Name)
			}
		}
	}
}

// withRel returns db with one relation replaced.
func withRel(db *storage.Database, rel *storage.Relation) *storage.Database {
	out := storage.NewDatabase(db.Name, db.ScaleFactor)
	for _, name := range db.Relations() {
		if name == rel.Name {
			out.Add(rel)
		} else {
			out.Add(db.Rel(name))
		}
	}
	return out
}

func TestPartitionConservesRows(t *testing.T) {
	db := sqlcheck.MiniTPCH(64, true)
	keys := PartitionKeys(db)
	if keys["lineitem"] != "l_orderkey" || keys["orders"] != "o_orderkey" {
		t.Fatalf("unexpected partition keys %v", keys)
	}
	const n = 4
	shards, err := Partition(db, n, keys)
	if err != nil {
		t.Fatal(err)
	}
	checkRangeSplit(t, db, shards, keys)
	// Both fact tables are stored in key order, so every shard is a
	// view of the base columns.
	for _, name := range []string{"lineitem", "orders"} {
		checkViews(t, name, db, shards)
		base := db.Rel(name).Int32(keys[name])
		cut := shards[0].Rel(name).Rows()
		if cut == 0 || shards[1].Rel(name).Rows() == 0 {
			t.Fatalf("%s: shards 0 and 1 should both hold rows", name)
		}
		if v := shards[0].Rel(name).Int32(keys[name]); &v[0] != &base[0] {
			t.Fatalf("%s shard 0 does not alias the base key column", name)
		}
		if v := shards[1].Rel(name).Int32(keys[name]); &v[0] != &base[cut] {
			t.Fatalf("%s shard 1 does not alias the base key column at row %d", name, cut)
		}
		// Appending to a view must reallocate, not overwrite the next
		// shard's first row.
		next := base[cut]
		v := append(shards[0].Rel(name).Int32(keys[name]), -7)
		if base[cut] != next || shards[1].Rel(name).Int32(keys[name])[0] != next || v[cut] != -7 {
			t.Fatalf("%s: appending to shard 0 wrote into shard 1", name)
		}
	}
	// Dimensions are replicated by pointer, not copied.
	for _, sdb := range shards {
		if sdb.Rel("customer") != db.Rel("customer") {
			t.Fatal("customer should be shared by pointer across shards")
		}
	}
}

// TestPartitionGathersUnclustered: a relation not stored in key-word
// order is copied into its shards under the same routing rule as the
// views, and a join across a gathered and a viewed relation still
// matches the oracle.
func TestPartitionGathersUnclustered(t *testing.T) {
	t.Run("ssb-lineorder", func(t *testing.T) {
		db := ssb.Generate(0.01, 0)
		keys := PartitionKeys(db)
		if keys["lineorder"] != "lo_custkey" {
			t.Fatalf("unexpected partition keys %v", keys)
		}
		if sortedWords(db.Rel("lineorder").Column("lo_custkey")) {
			t.Fatal("lineorder is stored in lo_custkey order; the test needs an unclustered relation")
		}
		shards, err := Partition(db, 3, keys)
		if err != nil {
			t.Fatal(err)
		}
		checkRangeSplit(t, db, shards, keys)
		checkCopied(t, "lineorder", db, shards)
	})
	t.Run("shuffled-lineitem", func(t *testing.T) {
		base := sqlcheck.MiniTPCH(64, true)
		li := base.Rel("lineitem")
		db := withRel(base, li.Gather(rand.New(rand.NewSource(1)).Perm(li.Rows())))
		keys := PartitionKeys(db)
		shards, err := Partition(db, 3, keys)
		if err != nil {
			t.Fatal(err)
		}
		checkRangeSplit(t, db, shards, keys)
		checkCopied(t, "lineitem", db, shards)
		checkViews(t, "orders", db, shards)
		checkCluster(t, db, 3, "select o_orderkey, o_totalprice, sum(l_extendedprice), count(*) from lineitem, orders where l_orderkey = o_orderkey group by o_orderkey, o_totalprice order by o_orderkey")
	})
}

func sortedWords(c *storage.Column) bool {
	for i := 1; i < c.Len(); i++ {
		if wordOf(c, i) < wordOf(c, i-1) {
			return false
		}
	}
	return true
}

// TestPartitionBalance: equal key ranges give shards of near-equal row
// counts on the generated data, for viewed and gathered relations.
func TestPartitionBalance(t *testing.T) {
	for _, db := range []*storage.Database{tpch.Generate(0.01, 0), ssb.Generate(0.01, 0)} {
		keys := PartitionKeys(db)
		for _, n := range []int{2, 3, 4, 8} {
			shards, err := Partition(db, n, keys)
			if err != nil {
				t.Fatal(err)
			}
			if n == 4 {
				checkRangeSplit(t, db, shards, keys)
			}
			for name := range keys {
				most := 0
				for _, sdb := range shards {
					most = max(most, sdb.Rel(name).Rows())
				}
				mean := float64(db.Rel(name).Rows()) / float64(n)
				if r := float64(most) / mean; r > 1.05 {
					t.Errorf("%s n=%d: max/mean shard rows %.3f > 1.05", name, n, r)
				}
			}
		}
	}
}

// TestPartitionEdgeCases covers key domains that stress the routing
// arithmetic and the view cuts.
func TestPartitionEdgeCases(t *testing.T) {
	// Negative int32 keys zero-extend to words above every positive
	// key, so a relation sorted by signed value is not in word order
	// and is gathered; the join stays co-partitioned.
	t.Run("negative-int32", func(t *testing.T) {
		db := storage.NewDatabase("tpch", 0)
		okeys := []int32{-40, -9, -3, -1, 0, 2, 5, 11}
		ord := storage.NewRelation("orders")
		ord.AddInt32("o_orderkey", okeys)
		price := make([]types.Numeric, len(okeys))
		for i := range price {
			price[i] = types.Numeric(int64(i+1) * 100)
		}
		ord.AddNumeric("o_totalprice", price)
		db.Add(ord)
		var lok []int32
		var lqty []types.Numeric
		for i, k := range okeys {
			for j := 0; j <= i%3; j++ {
				lok = append(lok, k)
				lqty = append(lqty, types.Numeric(int64(i+j+1)*types.NumericScale))
			}
		}
		li := storage.NewRelation("lineitem")
		li.AddInt32("l_orderkey", lok)
		li.AddNumeric("l_quantity", lqty)
		db.Add(li)
		keys := PartitionKeys(db)
		shards, err := Partition(db, 3, keys)
		if err != nil {
			t.Fatal(err)
		}
		checkRangeSplit(t, db, shards, keys)
		checkCopied(t, "orders", db, shards)
		checkCopied(t, "lineitem", db, shards)
		checkCluster(t, db, 3, "select o_orderkey, count(*), sum(l_quantity), min(l_quantity), max(l_quantity) from lineitem, orders where l_orderkey = o_orderkey group by o_orderkey order by o_orderkey")
		checkCluster(t, db, 3, "select sum(l_quantity), count(*) from lineitem")
	})
	// Int64 keys whose words span the full 64-bit domain, and the top
	// half of it, where (w − min)·n overflows 64 bits. In word order,
	// so every shard is a view.
	for _, tc := range []struct {
		name string
		keys []int64
	}{
		{"full-int64", []int64{0, 1, 1 << 62, math.MaxInt64, math.MinInt64, math.MinInt64 + 5, -2, -1}},
		{"top-half-int64", []int64{math.MinInt64, math.MinInt64 + 1, -1 << 40, -3, -2, -1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := storage.NewDatabase("tpch", 0)
			ord := storage.NewRelation("orders")
			ord.AddInt64("o_orderkey", tc.keys)
			db.Add(ord)
			keys := map[string]string{"orders": "o_orderkey"}
			for _, n := range []int{2, 3, 4, 8} {
				shards, err := Partition(db, n, keys)
				if err != nil {
					t.Fatal(err)
				}
				checkRangeSplit(t, db, shards, keys)
				checkViews(t, "orders", db, shards)
				if got := shards[n-1].Rel("orders").Int64("o_orderkey"); len(got) == 0 || got[len(got)-1] != -1 {
					t.Fatalf("n=%d: the largest key word should land on the last shard", n)
				}
			}
		})
	}
	// More shards than keys: most shards are empty views, and queries
	// still merge correctly.
	t.Run("more-shards-than-keys", func(t *testing.T) {
		db := sqlcheck.MiniTPCH(3, true)
		keys := PartitionKeys(db)
		shards, err := Partition(db, 8, keys)
		if err != nil {
			t.Fatal(err)
		}
		checkRangeSplit(t, db, shards, keys)
		empty := 0
		for _, sdb := range shards {
			if sdb.Rel("orders").Rows() == 0 {
				empty++
			}
		}
		if empty != 5 {
			t.Fatalf("%d of 8 shards hold no orders, want 5", empty)
		}
		checkViews(t, "orders", db, shards)
		checkViews(t, "lineitem", db, shards)
		checkCluster(t, db, 8, "select o_orderkey, sum(l_extendedprice) from lineitem, orders where l_orderkey = o_orderkey group by o_orderkey order by o_orderkey")
	})
}

// TestKeyRangeShard pins the routing arithmetic at the domain's ends.
func TestKeyRangeShard(t *testing.T) {
	for _, r := range []keyRange{
		{n: 4, min: 0, max: math.MaxUint64},
		{n: 8, min: 1 << 63, max: math.MaxUint64},
		{n: 3, min: 5, max: 5},
		{n: 8, min: 10, max: 12},
	} {
		for _, w := range []uint64{r.min, r.min + 1, r.min/2 + r.max/2, r.max - 1, r.max} {
			if w < r.min || w > r.max {
				continue
			}
			if got, want := r.shard(w), oracleShard(w, r.min, r.max, int(r.n)); got != want {
				t.Errorf("%+v: shard(%#x) = %d, want %d", r, w, got, want)
			}
		}
		if r.max-r.min >= r.n-1 && r.shard(r.max) != int(r.n)-1 {
			t.Errorf("%+v: a domain of at least n words should route max to the last shard", r)
		}
	}
}
