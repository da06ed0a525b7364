package exchange

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"paradigms/internal/catalog"
	"paradigms/internal/storage"
)

// PartitionKeys returns the range-partition column per relation of the
// database, from the catalog's schema annotations, keeping only keys
// the materialized relations actually carry. Relations absent from the
// result are replicated to every shard.
func PartitionKeys(db *storage.Database) map[string]string {
	keys := make(map[string]string)
	for _, name := range db.Relations() {
		if k := catalog.PartitionKey(name); k != "" && db.Rel(name).Has(k) {
			keys[name] = k
		}
	}
	return keys
}

// Partition range-partitions the database into n slices. Every relation
// with a partition key is split row-wise by one rule shared across the
// database: the key-word domain [min, max] of all partitioned relations
// is cut into n equal ranges, and a row goes to the range its key word
// falls in — so co-partitioned tables (lineitem and orders on the order
// key) land together. A relation stored in key-word order becomes n
// zero-copy views of its base columns (storage.Relation.Slice), as
// morsels are contiguous ranges of shared columns; any other is copied
// into its shards (storage.Relation.Gather). Every relation without a
// partition key is shared by pointer — replicated, at zero memory cost
// in-process. n=1 returns the database itself, so a one-shard cluster
// is bit-identical to single-process execution.
func Partition(db *storage.Database, n int, keys map[string]string) ([]*storage.Database, error) {
	if n < 1 {
		return nil, fmt.Errorf("exchange: shard count %d < 1", n)
	}
	if n == 1 {
		return []*storage.Database{db}, nil
	}
	words := make(map[string]keyWords)
	split := keyRange{n: uint64(n), min: math.MaxUint64}
	for _, name := range db.Relations() {
		key, ok := keys[name]
		if !ok {
			continue
		}
		w, err := keyWordsOf(db.Rel(name).Column(key))
		if err != nil {
			return nil, err
		}
		words[name] = w
		for i := 0; i < w.n; i++ {
			split.min, split.max = min(split.min, w.at(i)), max(split.max, w.at(i))
		}
	}
	out := make([]*storage.Database, n)
	for i := range out {
		out[i] = storage.NewDatabase(db.Name, db.ScaleFactor)
	}
	for _, name := range db.Relations() {
		rel := db.Rel(name)
		w, ok := words[name]
		if !ok {
			for i := range out {
				out[i].Add(rel)
			}
			continue
		}
		if w.sorted() {
			lo := 0
			for s := range out {
				hi := sort.Search(w.n, func(i int) bool { return split.shard(w.at(i)) > s })
				out[s].Add(rel.Slice(lo, hi))
				lo = hi
			}
			continue
		}
		counts := make([]int, n)
		for i := 0; i < w.n; i++ {
			counts[split.shard(w.at(i))]++
		}
		idx := make([][]int, n)
		for s := range idx {
			idx[s] = make([]int, 0, counts[s])
		}
		for i := 0; i < w.n; i++ {
			s := split.shard(w.at(i))
			idx[s] = append(idx[s], i)
		}
		for s := range out {
			out[s].Add(rel.Gather(idx[s]))
		}
	}
	return out, nil
}

// keyRange is the routing rule of one partitioned database: n equal
// ranges of the key-word domain [min, max].
type keyRange struct{ n, min, max uint64 }

// shard returns the range w falls in: floor((w−min)·n / (max−min+1)),
// in 128-bit arithmetic so a full-width domain cannot overflow. It is
// non-decreasing in w, which is what lets a key-ordered relation be
// cut by binary search.
func (r *keyRange) shard(w uint64) int {
	hi, lo := bits.Mul64(w-r.min, r.n)
	span := r.max - r.min + 1
	if span == 0 { // the domain is all 2^64 words
		return int(hi)
	}
	q, _ := bits.Div64(hi, lo, span)
	return int(q)
}

// keyWords reads a partition-key column as the join machinery's key
// words (32-bit values zero-extended), so routing and probing agree on
// every key.
type keyWords struct {
	n  int
	at func(i int) uint64
}

func keyWordsOf(c *storage.Column) (keyWords, error) {
	var at func(i int) uint64
	switch c.Type {
	case storage.Int32:
		at = func(i int) uint64 { return uint64(uint32(c.I32[i])) }
	case storage.Date:
		at = func(i int) uint64 { return uint64(uint32(c.Dat[i])) }
	case storage.Int64:
		at = func(i int) uint64 { return uint64(c.I64[i]) }
	case storage.Numeric:
		at = func(i int) uint64 { return uint64(c.Num[i]) }
	default:
		return keyWords{}, fmt.Errorf("exchange: column %s (%s) cannot be a partition key", c.Name, c.Type)
	}
	return keyWords{n: c.Len(), at: at}, nil
}

// sorted reports whether the words are non-decreasing — the relation is
// stored in key-word order, so every range is a contiguous run of rows.
func (w keyWords) sorted() bool {
	for i := 1; i < w.n; i++ {
		if w.at(i) < w.at(i-1) {
			return false
		}
	}
	return true
}
