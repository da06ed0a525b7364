package tw

import (
	"reflect"
	"testing"

	"paradigms/internal/exec"
	"paradigms/internal/hashtable"
	"paradigms/internal/vector"
)

// publish builds a join table over per-worker build keys (key in payload
// word 0) with the BuildBarrier protocol.
func publish(build [][]uint64) *hashtable.Table {
	ht := hashtable.New(1, len(build))
	bar := exec.NewBarrier(len(build))
	exec.Parallel(len(build), func(w int) {
		keys := build[w]
		hashes := make([]uint64, len(keys))
		MapHashU64(keys, hashes)
		base := ht.Shard(w).AllocN(ht, len(keys))
		ScatterHashes(ht, base, hashes, len(keys))
		ScatterWord(ht, base, 0, keys, len(keys))
		BuildBarrier(ht, bar, w)
	})
	return ht
}

// probeAll runs a Prober over keys and returns the matched keys (in
// match order), their probe positions and the number of keys hashed.
func probeAll(t *testing.T, ht *hashtable.Table, keys []uint64) (matched []uint64, pos []int32, hashed int) {
	t.Helper()
	pr := NewProber(vector.NewBuffers(len(keys)))
	hash := pr.Hash
	pr.Hash = func(keys, res []uint64) {
		hashed += len(keys)
		hash(keys, res)
	}
	mRefs := make([]hashtable.Ref, 64) // room for duplicate matches
	mPos := make([]int32, 64)
	in := append([]uint64(nil), keys...)
	nm := pr.Probe(ht, in, len(in), mRefs, mPos)
	if !reflect.DeepEqual(in, keys) {
		t.Errorf("Probe changed its input keys to %v", in)
	}
	for i := 0; i < nm; i++ {
		matched = append(matched, ht.Word(mRefs[i], 0))
	}
	return matched, mPos[:nm], hashed
}

// TestProbeKeyFilter: a table published with BuildBarrier gets a key
// filter, the Prober hashes only the probe keys that are build keys, and
// finds exactly those at their positions.
func TestProbeKeyFilter(t *testing.T) {
	ht := publish([][]uint64{{10, 14}, {12, 40}})
	if ht.KeyFilter().Bits() == 0 {
		t.Fatal("BuildBarrier published no key filter")
	}
	probe := []uint64{9, 10, 11, 12, 13, 14, 40, 41, 1 << 63}
	matched, pos, hashed := probeAll(t, ht, probe)
	if want := []uint64{10, 12, 14, 40}; !reflect.DeepEqual(matched, want) {
		t.Fatalf("Probe matched %v, want %v", matched, want)
	}
	if want := []int32{1, 3, 5, 6}; !reflect.DeepEqual(pos, want) {
		t.Errorf("positions %v, want %v", pos, want)
	}
	if hashed != 4 {
		t.Errorf("hashed %d keys, want the 4 the filter passes", hashed)
	}
}

// TestProbeInPlace: the filter's compaction may run in the prober's own
// key vector.
func TestProbeInPlace(t *testing.T) {
	ht := publish([][]uint64{{10, 14}, {12, 40}})
	pr := NewProber(vector.NewBuffers(8))
	keys := append(pr.Keys[:0], 9, 10, 11, 12, 13, 14, 40, 41)
	mRefs := make([]hashtable.Ref, 8)
	mPos := make([]int32, 8)
	nm := pr.Probe(ht, keys, len(keys), mRefs, mPos)
	if want := []int32{1, 3, 5, 6}; !reflect.DeepEqual(mPos[:nm], want) {
		t.Errorf("positions %v, want %v", mPos[:nm], want)
	}
}

// TestProbeDuplicateKeys: a set bit only sends the probe on to the
// chain, so every duplicate of a build key is still found.
func TestProbeDuplicateKeys(t *testing.T) {
	ht := publish([][]uint64{{5, 7, 5}, {5, 7}})
	matched, pos, _ := probeAll(t, ht, []uint64{4, 5, 6, 7})
	var fives, sevens int
	for i, k := range matched {
		switch {
		case k == 5 && pos[i] == 1:
			fives++
		case k == 7 && pos[i] == 3:
			sevens++
		default:
			t.Errorf("unexpected match key %d at position %d", k, pos[i])
		}
	}
	if fives != 3 || sevens != 2 {
		t.Errorf("found %d fives and %d sevens, want 3 and 2", fives, sevens)
	}
}

// TestProbeUnfiltered: a table without a filter (Finalize) hashes and
// probes every key.
func TestProbeUnfiltered(t *testing.T) {
	ht := hashtable.New(1, 1)
	for _, k := range []uint64{3, 8} {
		ref, _ := ht.Shard(0).Alloc(ht, Hash(k))
		ht.SetWord(ref, 0, k)
	}
	ht.Finalize()
	if bits := ht.KeyFilter().Bits(); bits != 0 {
		t.Fatalf("Finalize built a %d-bit filter", bits)
	}
	matched, pos, hashed := probeAll(t, ht, []uint64{2, 3, 8, 9})
	if want := []uint64{3, 8}; !reflect.DeepEqual(matched, want) {
		t.Fatalf("Probe matched %v, want %v", matched, want)
	}
	if want := []int32{1, 2}; !reflect.DeepEqual(pos, want) {
		t.Errorf("positions %v, want %v", pos, want)
	}
	if hashed != 4 {
		t.Errorf("hashed %d keys, want all 4", hashed)
	}
}
