package hashtable

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// insertKV inserts key->value into shard 0 with the given hash function.
func insertKV(t *Table, hf func(uint64) uint64, key, value uint64) {
	ref, _ := t.Shard(0).Alloc(t, hf(key))
	t.SetWord(ref, 0, key)
	t.SetWord(ref, 1, value)
}

// lookupKV probes for key, comparing stored hash then key, as the engines do.
func lookupKV(t *Table, hf func(uint64) uint64, key uint64) (uint64, bool) {
	h := hf(key)
	for ref := t.Lookup(h); ref != 0; ref = t.Next(ref) {
		if t.Hash(ref) == h && t.Word(ref, 0) == key {
			return t.Word(ref, 1), true
		}
	}
	return 0, false
}

func TestBuildAndProbeSingleThread(t *testing.T) {
	ht := New(2, 1)
	const n = 10000
	for i := uint64(0); i < n; i++ {
		insertKV(ht, Murmur2, i*3, i)
	}
	ht.Finalize()
	if ht.Rows() != n {
		t.Fatalf("Rows = %d", ht.Rows())
	}
	for i := uint64(0); i < n; i++ {
		v, ok := lookupKV(ht, Murmur2, i*3)
		if !ok || v != i {
			t.Fatalf("lookup %d = %d,%v", i*3, v, ok)
		}
	}
	// Misses.
	for i := uint64(0); i < n; i++ {
		if _, ok := lookupKV(ht, Murmur2, i*3+1); ok {
			t.Fatalf("false positive for %d", i*3+1)
		}
	}
}

func TestAgainstMapOracleProperty(t *testing.T) {
	f := func(keys []uint64, probes []uint64) bool {
		oracle := make(map[uint64]uint64)
		ht := New(2, 1)
		for i, k := range keys {
			if _, dup := oracle[k]; dup {
				continue
			}
			oracle[k] = uint64(i)
			insertKV(ht, CRC, k, uint64(i))
		}
		ht.Finalize()
		for k, want := range oracle {
			got, ok := lookupKV(ht, CRC, k)
			if !ok || got != want {
				return false
			}
		}
		for _, p := range probes {
			_, want := oracle[p]
			_, got := lookupKV(ht, CRC, p)
			if want != got {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDuplicateKeysChain(t *testing.T) {
	// Join tables store duplicates (e.g. Q9's lineitem-side build keyed by
	// orderkey); all must be reachable on the chain.
	ht := New(2, 1)
	const key, n = 42, 17
	for i := uint64(0); i < n; i++ {
		insertKV(ht, Murmur2, key, i)
	}
	insertKV(ht, Murmur2, 43, 99)
	ht.Finalize()
	seen := make(map[uint64]bool)
	h := Murmur2(key)
	for ref := ht.Lookup(h); ref != 0; ref = ht.Next(ref) {
		if ht.Hash(ref) == h && ht.Word(ref, 0) == key {
			seen[ht.Word(ref, 1)] = true
		}
	}
	if len(seen) != n {
		t.Fatalf("found %d duplicates, want %d", len(seen), n)
	}
}

func TestParallelBuild(t *testing.T) {
	const shards = 8
	const perShard = 5000
	ht := New(1, shards)
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sh := ht.Shard(s)
			for i := 0; i < perShard; i++ {
				key := uint64(s*perShard + i)
				ref, _ := sh.Alloc(ht, Murmur2(key))
				ht.SetWord(ref, 0, key)
			}
		}(s)
	}
	wg.Wait()
	ht.Prepare(ht.Rows())
	wg = sync.WaitGroup{}
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			ht.InsertShard(s)
		}(s)
	}
	wg.Wait()
	for key := uint64(0); key < shards*perShard; key++ {
		h := Murmur2(key)
		found := false
		for ref := ht.Lookup(h); ref != 0; ref = ht.Next(ref) {
			if ht.Hash(ref) == h && ht.Word(ref, 0) == key {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("key %d lost in parallel build", key)
		}
	}
}

func TestTagsFilterMisses(t *testing.T) {
	ht := New(2, 1)
	for i := uint64(0); i < 64; i++ {
		insertKV(ht, Murmur2, i, i)
	}
	ht.Finalize()
	// With a sparse table, most missing probes should be rejected by the
	// tag without walking the chain. Count how often Lookup returns 0 for
	// misses whose bucket is non-empty.
	tagRejections, bucketHits := 0, 0
	for i := uint64(1000); i < 9000; i++ {
		h := Murmur2(i)
		raw := ht.LookupDirWord(h)
		if raw&refMask == 0 {
			continue // empty bucket, tag irrelevant
		}
		bucketHits++
		if ht.Lookup(h) == 0 {
			tagRejections++
		}
	}
	if bucketHits == 0 {
		t.Skip("degenerate: no non-empty buckets probed")
	}
	// A single-bit-per-entry Bloom tag over ~1 entry per bucket should
	// reject the vast majority of misses.
	if float64(tagRejections) < 0.8*float64(bucketHits) {
		t.Errorf("tags rejected only %d/%d misses", tagRejections, bucketHits)
	}
	// And with tags disabled, the same probes must all walk the chain.
	ht.UseTags = false
	for i := uint64(1000); i < 1100; i++ {
		h := Murmur2(i)
		if raw := ht.LookupDirWord(h); raw&refMask != 0 && ht.Lookup(h) == 0 {
			t.Fatal("UseTags=false still rejecting")
		}
	}
}

func TestPrepareSizing(t *testing.T) {
	ht := New(1, 1)
	ht.Prepare(1000)
	if ht.DirSize() != 2048 {
		t.Errorf("DirSize = %d, want 2048", ht.DirSize())
	}
	ht.Prepare(0)
	if ht.DirSize() != 64 {
		t.Errorf("DirSize floor = %d, want 64", ht.DirSize())
	}
	ht.Prepare(1 << 20)
	if ht.DirSize() != 1<<21 {
		t.Errorf("DirSize = %d, want %d", ht.DirSize(), 1<<21)
	}
}

func TestReset(t *testing.T) {
	ht := New(2, 2)
	insertKV(ht, Murmur2, 7, 7)
	ht.Finalize()
	ht.Reset()
	if ht.Rows() != 0 || ht.DirSize() != 0 {
		t.Fatal("Reset did not clear")
	}
	insertKV(ht, Murmur2, 9, 1)
	ht.Finalize()
	if v, ok := lookupKV(ht, Murmur2, 9); !ok || v != 1 {
		t.Fatal("table unusable after Reset")
	}
	if _, ok := lookupKV(ht, Murmur2, 7); ok {
		t.Fatal("stale entry visible after Reset")
	}
}

func TestAllocN(t *testing.T) {
	ht := New(2, 1)
	sh := ht.Shard(0)
	base := sh.AllocN(ht, 5)
	for i := 0; i < 5; i++ {
		ref := Ref(uint64(base) + uint64(i*ht.RowWords()))
		ht.SetWord(ref, 0, uint64(i))
	}
	for i := 0; i < 5; i++ {
		ref := Ref(uint64(base) + uint64(i*ht.RowWords()))
		if ht.Word(ref, 0) != uint64(i) {
			t.Fatalf("AllocN row %d corrupt", i)
		}
	}
	if ht.Rows() != 5 {
		t.Fatalf("Rows = %d", ht.Rows())
	}
}

func TestHashFunctionsBasics(t *testing.T) {
	// Distinctness and determinism smoke tests.
	seen := make(map[uint64]bool)
	for i := uint64(0); i < 100000; i++ {
		h := Murmur2(i)
		if seen[h] {
			t.Fatalf("Murmur2 collision at %d", i)
		}
		seen[h] = true
		if Murmur2(i) != h {
			t.Fatal("Murmur2 not deterministic")
		}
	}
	seen = make(map[uint64]bool)
	collisions := 0
	for i := uint64(0); i < 100000; i++ {
		h := CRC(i)
		if seen[h] {
			collisions++
		}
		seen[h] = true
	}
	if collisions > 2 {
		t.Fatalf("CRC collisions = %d on sequential keys", collisions)
	}
}

func TestHashAvalanche(t *testing.T) {
	// Flipping one input bit should flip roughly half the output bits.
	check := func(name string, hf func(uint64) uint64) {
		rng := rand.New(rand.NewSource(1))
		totalFlips, samples := 0, 0
		for i := 0; i < 2000; i++ {
			k := rng.Uint64()
			bit := uint(rng.Intn(64))
			d := hf(k) ^ hf(k^(1<<bit))
			totalFlips += popcount(d)
			samples++
		}
		avg := float64(totalFlips) / float64(samples)
		if avg < 24 || avg > 40 {
			t.Errorf("%s avalanche: avg %.1f flipped bits, want ~32", name, avg)
		}
	}
	check("Murmur2", Murmur2)
	check("CRC", CRC)
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

func TestMurmur2Bytes(t *testing.T) {
	if Murmur2Bytes([]byte("")) == Murmur2Bytes([]byte("x")) {
		t.Error("trivial collision")
	}
	// 8-byte strings should match the word variant fed the same bits.
	b := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	var k uint64
	for i := 7; i >= 0; i-- {
		k = k<<8 | uint64(b[i])
	}
	// Not necessarily equal (length-seeded), but both deterministic.
	if Murmur2Bytes(b) != Murmur2Bytes([]byte{1, 2, 3, 4, 5, 6, 7, 8}) {
		t.Error("Murmur2Bytes not deterministic")
	}
	_ = k
	// Tail handling: lengths 1..7 all distinct.
	seen := make(map[uint64]bool)
	for l := 0; l <= 7; l++ {
		h := Murmur2Bytes(make([]byte, l))
		if seen[h] {
			t.Errorf("length-%d tail collides", l)
		}
		seen[h] = true
	}
}

func TestHashCombineOrderMatters(t *testing.T) {
	a, b := Murmur2(1), Murmur2(2)
	if HashCombine(a, b) == HashCombine(b, a) {
		t.Error("HashCombine symmetric; composite keys (x,y) and (y,x) would collide")
	}
}

func TestTagBits(t *testing.T) {
	for i := 0; i < 1000; i++ {
		tag := Tag(rand.Uint64())
		if tag&((1<<tagShift)-1) != 0 {
			t.Fatalf("tag %x intrudes into ref bits", tag)
		}
		if popcount(tag) != 1 {
			t.Fatalf("tag %x has %d bits set", tag, popcount(tag))
		}
	}
}

func TestNewPanics(t *testing.T) {
	for _, f := range []func(){
		func() { New(-1, 1) },
		func() { New(1, 0) },
		func() { New(1, MaxShards+1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// TestAggRoomGrows: a pre-aggregation table starts at the 64-slot floor,
// doubles whenever its rows reach half the slots, keeps every group
// findable across the re-inserts, and stops taking groups at
// PreAggCapacity with the directory an eager Prepare(PreAggCapacity)
// would have allocated.
func TestAggRoomGrows(t *testing.T) {
	tb := New(2, 1)
	tb.Prepare(0)
	if tb.DirSize() != 64 {
		t.Fatalf("initial directory %d slots, want 64", tb.DirSize())
	}
	key := uint64(0)
	for ; tb.AggRoom(); key++ {
		if rows := tb.Rows(); 2*rows >= tb.DirSize() {
			t.Fatalf("%d rows in %d slots: load factor above 0.5", rows, tb.DirSize())
		}
		ref, _ := tb.Shard(0).Alloc(tb, Mix64(key))
		tb.SetWord(ref, 0, key)
		tb.SetWord(ref, 1, key*3)
		tb.Insert(ref, Mix64(key))
	}
	if key != PreAggCapacity {
		t.Fatalf("took %d groups, want PreAggCapacity %d", key, PreAggCapacity)
	}
	eager := New(2, 1)
	eager.Prepare(PreAggCapacity)
	if tb.DirSize() != eager.DirSize() {
		t.Errorf("full table has %d slots, eager Prepare %d", tb.DirSize(), eager.DirSize())
	}
	for k := uint64(0); k < key; k++ {
		if v, ok := lookupKV(tb, Mix64, k); !ok || v != k*3 {
			t.Fatalf("key %d: got (%d, %v) after growth, want (%d, true)", k, v, ok, k*3)
		}
	}
	if _, ok := lookupKV(tb, Mix64, key); ok {
		t.Errorf("key %d was never inserted but is found", key)
	}
}
