package hashtable

import (
	"math"
	"sync"
	"testing"
)

// publishKeys builds a join table (key in payload word 0) over keys dealt
// round-robin to shards, published with the keyed protocol of
// tw.BuildBarrier run sequentially: KeyBounds per shard, then
// PrepareKeyFilter, then InsertShard per shard.
func publishKeys(shards int, keys []uint64) *Table {
	ht := New(1, shards)
	for i, k := range keys {
		ref, _ := ht.Shard(i%shards).Alloc(ht, Mix64(k))
		ht.SetWord(ref, 0, k)
	}
	for i := 0; i < shards; i++ {
		ht.KeyBounds(i)
	}
	ht.PrepareKeyFilter()
	for i := 0; i < shards; i++ {
		ht.InsertShard(i)
	}
	return ht
}

// matches counts the entries whose key is k, walking the chain the way
// the engines do: a key-indexed table's slot chain (whose entries must
// all carry k), else the hashed bucket chain.
func matches(ht *Table, k uint64) int {
	n := 0
	if ix := ht.KeyIndex(); ix.On() {
		for ref := ix.Head(k); ref != 0; ref = ht.Next(ref) {
			if ht.Word(ref, 0) != k {
				panic("key-indexed chain holds a foreign key")
			}
			n++
		}
		return n
	}
	h := Mix64(k)
	for ref := ht.Lookup(h); ref != 0; ref = ht.Next(ref) {
		if ht.Hash(ref) == h && ht.Word(ref, 0) == k {
			n++
		}
	}
	return n
}

// miss reports whether the filter rejects k: it has a bitmap, and k is
// outside it or its bit is clear.
func miss(f KeyFilter, k uint64) bool {
	words, min := f.Words()
	d := k - min
	return words != nil && (d >= uint64(len(words))<<6 || words[d>>6]&(1<<(d&63)) == 0)
}

// checkExact asserts the filter rejects exactly the probes that are not
// build keys (nothing, when the table has no filter), and that every
// probe still finds its matches.
func checkExact(t *testing.T, ht *Table, want map[uint64]int, probes []uint64) {
	t.Helper()
	kf := ht.KeyFilter()
	for _, k := range probes {
		wantMiss := kf.Bits() > 0 && want[k] == 0
		if m := miss(kf, k); m != wantMiss {
			t.Errorf("miss(%d) = %v, want %v", int64(k), m, wantMiss)
		}
		if got := matches(ht, k); got != want[k] {
			t.Errorf("key %d: %d matches, want %d", int64(k), got, want[k])
		}
	}
}

func TestKeyFilterBoundsAndGaps(t *testing.T) {
	keys := []uint64{10, 13, 20, 64, 127, 128, 1000}
	ht := publishKeys(1, keys)
	if got, want := ht.KeyFilter().Bits(), 1024; got != want {
		t.Fatalf("Bits = %d, want %d (span 991 rounded up to words)", got, want)
	}
	want := map[uint64]int{}
	for _, k := range keys {
		want[k]++
	}
	var probes []uint64
	for k := uint64(0); k <= 1100; k++ { // min−1, max+1 and every gap
		probes = append(probes, k)
	}
	probes = append(probes, math.MaxUint64, 1<<63)
	checkExact(t, ht, want, probes)
}

func TestKeyFilterDuplicateKeys(t *testing.T) {
	keys := []uint64{5, 5, 5, 9, 9, 40}
	ht := publishKeys(2, keys)
	if ht.KeyFilter().Bits() == 0 {
		t.Fatal("duplicate-key build got no filter")
	}
	checkExact(t, ht, map[uint64]int{5: 3, 9: 2, 40: 1}, []uint64{4, 5, 6, 8, 9, 10, 39, 40, 41})
}

func TestKeyFilterEmptyBuild(t *testing.T) {
	ht := publishKeys(3, nil)
	if bits := ht.KeyFilter().Bits(); bits != 0 {
		t.Fatalf("empty build has a %d-bit filter", bits)
	}
	checkExact(t, ht, nil, []uint64{0, 1, math.MaxUint64})
}

func TestKeyFilterSignedSpan(t *testing.T) {
	neg := func(v int64) uint64 { return uint64(v) }
	ht := publishKeys(2, []uint64{neg(-5), neg(-1), 3})
	if got := ht.KeyFilter().Bits(); got != 64 {
		t.Fatalf("Bits = %d, want 64 (signed span 9)", got)
	}
	checkExact(t, ht, map[uint64]int{neg(-5): 1, neg(-1): 1, 3: 1},
		[]uint64{neg(-6), neg(-5), neg(-4), neg(-1), 0, 3, 4, math.MaxInt64, 1 << 63})

	// min = MinInt64, max = MaxInt64: max − min + 1 wraps to 0.
	ht = publishKeys(2, []uint64{1 << 63, math.MaxInt64})
	if bits := ht.KeyFilter().Bits(); bits != 0 {
		t.Fatalf("wrapping span has a %d-bit filter", bits)
	}
	checkExact(t, ht, map[uint64]int{1 << 63: 1, math.MaxInt64: 1}, []uint64{0, 1 << 63, math.MaxInt64})
}

// TestKeyFilterSizeBound pins the no-knob bound: a filter is allocated
// only while its span fits in 64 bits per directory slot.
func TestKeyFilterSizeBound(t *testing.T) {
	const lo = 1 << 40
	probe := New(1, 1)
	probe.Prepare(2)
	limit := uint64(64 * probe.DirSize())

	ht := publishKeys(1, []uint64{lo, lo + limit - 1})
	if got := uint64(ht.KeyFilter().Bits()); got != limit {
		t.Fatalf("span 64×slots: Bits = %d, want %d", got, limit)
	}
	if bytes, dir := ht.KeyFilter().Bits()/8, 8*ht.DirSize(); bytes > dir {
		t.Fatalf("filter %d B larger than directory %d B", bytes, dir)
	}
	checkExact(t, ht, map[uint64]int{lo: 1, lo + limit - 1: 1}, []uint64{lo - 1, lo, lo + 1, lo + limit - 2, lo + limit - 1, lo + limit})

	ht = publishKeys(1, []uint64{lo, lo + limit})
	if bits := ht.KeyFilter().Bits(); bits != 0 {
		t.Fatalf("span 64×slots+1: %d-bit filter, want none", bits)
	}
	checkExact(t, ht, map[uint64]int{lo: 1, lo + limit: 1}, []uint64{lo - 1, lo, lo + 1, lo + limit})
}

// TestKeyFilterOnlyKeyedPublish: Prepare (aggregation, Finalize) and
// Reset leave a table without a filter.
func TestKeyFilterOnlyKeyedPublish(t *testing.T) {
	ht := publishKeys(1, []uint64{1, 20, 300}) // sparse: hashed, filtered
	if ht.KeyFilter().Bits() == 0 {
		t.Fatal("keyed publish got no filter")
	}
	ht.Reset()
	if bits := ht.KeyFilter().Bits(); bits != 0 {
		t.Fatalf("Reset kept a %d-bit filter", bits)
	}
	ref, _ := ht.Shard(0).Alloc(ht, Mix64(7))
	ht.SetWord(ref, 0, 7)
	ht.Finalize()
	if bits := ht.KeyFilter().Bits(); bits != 0 {
		t.Fatalf("Finalize built a %d-bit filter", bits)
	}
}

// TestKeyFilterConcurrentPublish runs the keyed publish with 4 workers
// bounding and inserting their shards concurrently; keys interleave
// across shards so every bitmap word is set by all of them (run with
// -race -count=10).
func TestKeyFilterConcurrentPublish(t *testing.T) {
	const shards, n = 4, 20000
	ht := New(1, shards)
	want := map[uint64]int{}
	for i := 0; i < n; i++ {
		k := uint64(3*i + i%2) // gaps of 2 and 3
		ref, _ := ht.Shard(i%shards).Alloc(ht, Mix64(k))
		ht.SetWord(ref, 0, k)
		want[k]++
	}
	phase := func(fn func(i int)) {
		var wg sync.WaitGroup
		for i := 0; i < shards; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				fn(i)
			}(i)
		}
		wg.Wait()
	}
	phase(ht.KeyBounds)
	ht.PrepareKeyFilter()
	phase(ht.InsertShard)
	if ht.KeyFilter().Bits() == 0 {
		t.Fatal("no filter")
	}
	var probes []uint64
	for k := uint64(0); k < 3*n+2; k++ {
		probes = append(probes, k)
	}
	checkExact(t, ht, want, probes)
}
