package hashtable

import (
	"math"
	"sync"
	"testing"
)

// checkIndexed asserts the table is key-indexed — no hashed directory,
// no key filter — and that every probe finds exactly its matches.
func checkIndexed(t *testing.T, ht *Table, want map[uint64]int, probes []uint64) {
	t.Helper()
	if !ht.KeyIndex().On() {
		t.Fatalf("table is hashed (%d directory slots), want key-indexed", ht.DirSize())
	}
	if bits := ht.KeyFilter().Bits(); bits != 0 {
		t.Errorf("key-indexed table also has a %d-bit key filter", bits)
	}
	for _, k := range probes {
		if got := matches(ht, k); got != want[k] {
			t.Errorf("key %d: %d matches, want %d", int64(k), got, want[k])
		}
	}
}

func TestKeyIndexDuplicateKeys(t *testing.T) {
	keys := []uint64{5, 5, 5, 6, 8, 8}
	ht := publishKeys(2, keys)
	if got := ht.DirSize(); got != 4 {
		t.Fatalf("DirSize = %d, want the span 4", got)
	}
	checkIndexed(t, ht, map[uint64]int{5: 3, 6: 1, 8: 2}, []uint64{4, 5, 6, 7, 8, 9})
}

// TestKeyIndexNegativeInt32: 32-bit keys are zero-extended words, so an
// all-negative domain is contiguous and indexes like any other; a
// signed 64-bit negative domain indexes by its signed bounds.
func TestKeyIndexNegativeInt32(t *testing.T) {
	w32 := func(v int32) uint64 { return uint64(uint32(v)) }
	ht := publishKeys(2, []uint64{w32(-5), w32(-4), w32(-3), w32(-1)})
	checkIndexed(t, ht, map[uint64]int{w32(-5): 1, w32(-4): 1, w32(-3): 1, w32(-1): 1},
		[]uint64{w32(-6), w32(-5), w32(-4), w32(-3), w32(-2), w32(-1), 0, 1, uint64(math.MaxUint32) + 1})

	w64 := func(v int64) uint64 { return uint64(v) }
	ht = publishKeys(1, []uint64{w64(-3), w64(-2), w64(-1)})
	checkIndexed(t, ht, map[uint64]int{w64(-3): 1, w64(-2): 1, w64(-1): 1},
		[]uint64{w64(-4), w64(-3), w64(-1), 0, math.MaxInt64, 1 << 63})
}

func TestKeyIndexEmptyBuild(t *testing.T) {
	ht := publishKeys(3, nil)
	checkIndexed(t, ht, nil, []uint64{0, 1, math.MaxUint64})
	if n := ht.DirSize(); n != 0 {
		t.Errorf("empty build has %d directory slots", n)
	}
}

// TestKeyIndexSpanBound pins the rule: span ≤ 2 × rows is key-indexed,
// one key wider is hashed (with its key filter).
func TestKeyIndexSpanBound(t *testing.T) {
	const lo = 1 << 40
	ht := publishKeys(2, []uint64{lo, lo + 1, lo + 5, lo + 7}) // span 8 = 2 × 4
	checkIndexed(t, ht, map[uint64]int{lo: 1, lo + 1: 1, lo + 5: 1, lo + 7: 1},
		[]uint64{lo - 1, lo, lo + 1, lo + 2, lo + 5, lo + 7, lo + 8})
	if got := ht.DirSize(); got != 8 {
		t.Errorf("DirSize = %d, want 8", got)
	}

	ht = publishKeys(2, []uint64{lo, lo + 1, lo + 5, lo + 8}) // span 9
	if ht.KeyIndex().On() || ht.KeyFilter().Bits() == 0 {
		t.Fatalf("span 2×rows+1: indexed=%v, %d filter bits; want hashed and filtered",
			ht.KeyIndex().On(), ht.KeyFilter().Bits())
	}
	checkExact(t, ht, map[uint64]int{lo: 1, lo + 1: 1, lo + 5: 1, lo + 8: 1},
		[]uint64{lo - 1, lo, lo + 1, lo + 5, lo + 8, lo + 9})
}

// TestKeyIndexOutOfRange: probes below min and above max miss,
// including ones whose k − min wraps.
func TestKeyIndexOutOfRange(t *testing.T) {
	ht := publishKeys(1, []uint64{100, 101, 102})
	checkIndexed(t, ht, map[uint64]int{100: 1, 101: 1, 102: 1},
		[]uint64{0, 98, 99, 100, 102, 103, 104, 1 << 32, math.MaxInt64, 1 << 63, math.MaxUint64})
}

// TestKeyIndexLookupPanics: a key-indexed table has no hashed directory,
// so a reader that still hashes fails loudly instead of missing.
func TestKeyIndexLookupPanics(t *testing.T) {
	ht := publishKeys(1, []uint64{1, 2, 3})
	if !ht.KeyIndex().On() {
		t.Fatal("dense build is not key-indexed")
	}
	defer func() {
		if recover() == nil {
			t.Error("Lookup on a key-indexed table did not panic")
		}
	}()
	ht.Lookup(Mix64(2))
}

// TestKeyIndexConcurrentPublish runs the keyed publish with 4 workers
// inserting their shards concurrently into few slots, so every slot's
// chain is pushed by all of them (run with -race and across GOMAXPROCS).
func TestKeyIndexConcurrentPublish(t *testing.T) {
	const shards, n, span = 4, 20000, 97
	ht := New(1, shards)
	want := map[uint64]int{}
	for i := 0; i < n; i++ {
		k := uint64(1000 + i%span)
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
	var probes []uint64
	for k := uint64(990); k < 1000+span+10; k++ {
		probes = append(probes, k)
	}
	checkIndexed(t, ht, want, probes)
}

// TestKeyIndexOnlyKeyedPublish: Prepare, Finalize and Reset leave no key
// index behind.
func TestKeyIndexOnlyKeyedPublish(t *testing.T) {
	ht := publishKeys(1, []uint64{1, 2, 3})
	ht.Reset()
	if ht.KeyIndex().On() {
		t.Fatal("Reset kept the key index")
	}
	ref, _ := ht.Shard(0).Alloc(ht, Mix64(7))
	ht.SetWord(ref, 0, 7)
	ht.Finalize()
	if ht.KeyIndex().On() || ht.Lookup(Mix64(7)) == 0 {
		t.Fatal("Finalize did not build a hashed directory")
	}
}

// TestAggArray: a slot's first row reports first, later rows do not;
// Flush emits exactly the occupied slots as [Mix64(key), key, aggs...];
// a key outside the domain panics.
func TestAggArray(t *testing.T) {
	a := NewAggArray(10, 70, 2)
	w := a.Words()
	for _, k := range []uint64{10, 79, 10, 42} {
		off, first := a.Slot(k)
		if first {
			w[off] = k
		}
		w[off+1]++
	}
	spill := NewSpill(1, 4, 4)
	a.Flush(spill, 0)
	got := map[uint64][2]uint64{}
	for p := 0; p < spill.Parts(); p++ {
		spill.PartitionRows(p, func(row []uint64) {
			if row[0] != Mix64(row[1]) || PartitionOf(row[0], 4) != p {
				t.Errorf("row %v: bad hash or partition %d", row, p)
			}
			got[row[1]] = [2]uint64{row[2], row[3]}
		})
	}
	want := map[uint64][2]uint64{10: {10, 2}, 42: {42, 1}, 79: {79, 1}}
	if len(got) != len(want) {
		t.Fatalf("flushed %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("key %d: %v, want %v", k, got[k], v)
		}
	}
	for _, k := range []uint64{9, 80, math.MaxUint64} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Slot(%d) outside [10, 80) did not panic", k)
				}
			}()
			a.Slot(k)
		}()
	}
}
