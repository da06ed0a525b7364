package simd

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"paradigms/internal/hashtable"
)

// isMember is the scalar oracle of the membership kernels, written
// from the two layouts' definitions rather than the kernels' shared
// shift/bit/test form.
func isMember(bitmap bool, words []uint64, min, k uint64) bool {
	d := k - min
	if bitmap {
		return d/64 < uint64(len(words)) && words[d/64]&(1<<(d%64)) != 0
	}
	return d < uint64(len(words)) && words[d] != 0
}

// memberSet is one key set of the side-by-side test: its layout, words
// and min.
type memberSet struct {
	name   string
	bitmap bool
	words  []uint64
	min    uint64
}

func (m memberSet) set() KeySet {
	if m.bitmap {
		return BitmapSet(m.words, m.min)
	}
	return SlotSet(m.words, m.min)
}

// span is the number of keys the set's words cover.
func (m memberSet) span() uint64 {
	if m.bitmap {
		return 64 * uint64(len(m.words))
	}
	return uint64(len(m.words))
}

// memberSets draws bitmaps and slot arrays of a few sizes that are
// random, empty and full (a slot array's random fill leaves empty
// slots), based at each min.
func memberSets(r *rand.Rand, mins []uint64) []memberSet {
	var sets []memberSet
	for _, bitmap := range []bool{true, false} {
		sizes := []int{1, 3, 40}
		if !bitmap {
			sizes = []int{1, 5, 300}
		}
		for _, n := range sizes {
			for _, fill := range []string{"random", "empty", "full"} {
				words := make([]uint64, n)
				for i := range words {
					switch {
					case fill == "full":
						words[i] = ^uint64(0)
					case fill == "random" && bitmap:
						words[i] = r.Uint64() & r.Uint64()
					case fill == "random" && r.Intn(2) == 0:
						words[i] = uint64(1 + r.Intn(1000))
					}
				}
				for _, min := range mins {
					kind := "slots"
					if bitmap {
						kind = "bitmap"
					}
					sets = append(sets, memberSet{fmt.Sprintf("%s[%d] %s min=%d", kind, n, fill, int64(min)), bitmap, words, min})
				}
			}
		}
	}
	return sets
}

// memberKeys draws key words around s: below min, at min, inside, at
// min+span−1 and min+span, and anywhere.
func memberKeys(r *rand.Rand, s memberSet, n int, extremes []uint64) []uint64 {
	keys := make([]uint64, n)
	span := s.span()
	for i := range keys {
		switch r.Intn(8) {
		case 0:
			keys[i] = s.min - 1 - uint64(r.Intn(3))
		case 1:
			keys[i] = s.min
		case 2:
			keys[i] = s.min + span - 1
		case 3:
			keys[i] = s.min + span
		case 4:
			keys[i] = extremes[r.Intn(len(extremes))]
		case 5:
			keys[i] = r.Uint64()
		default:
			keys[i] = s.min + uint64(r.Int63n(int64(span)))
		}
	}
	return keys
}

// TestMembershipKernelsMatchGoPath runs each membership kernel on the
// path chosen at init and on the forced Go path, side by side, against
// the oracle: lengths around the 8-lane blocks, keys below min, at
// min+span−1 and at min+span, negative int32 and extreme int64 keys,
// empty and full bitmaps, slot arrays with empty slots, empty, full and
// gapped selections, and out aliasing sel. On a CPU without AVX-512
// both sides are the Go loops, and the oracle still checks them.
func TestMembershipKernelsMatchGoPath(t *testing.T) {
	if useAVX512 {
		t.Log("path: AVX-512 assembly against the Go kernels")
	} else {
		t.Log("path: Go kernels only (no AVX-512 on this CPU)")
	}
	r := rand.New(rand.NewSource(37))
	// 32-bit keys reach a set as zero-extended words: a negative key's
	// min is its word form.
	word32 := func(k int32) uint64 { return uint64(uint32(k)) }
	mins32 := []uint64{0, 100, word32(math.MinInt32), word32(-50)}
	ext32 := []uint64{word32(math.MinInt32), math.MaxInt32, math.MaxUint32, 0}
	mins64 := []uint64{0, 1 << 32, uint64(math.MaxInt64 - 10), 1 << 63, uint64(1<<64 - 1000)}
	ext64 := []uint64{1 << 63, math.MaxInt64, math.MaxUint64, 0, 1 << 32}
	same := func(name string, want []int32, kernel func(out []int32) int, size int) {
		t.Helper()
		got, ref := make([]int32, size), make([]int32, size)
		k := kernel(got)
		kg := onGoPath(func() int { return kernel(ref) })
		if !equalSel(want, ref[:kg], kg) {
			t.Fatalf("%s on the Go path: got %d positions, want %d", name, kg, len(want))
		}
		if !equalSel(want, got[:k], k) {
			t.Fatalf("%s: got %d positions, want %d (Go path agrees with the oracle)", name, k, len(want))
		}
	}
	for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17, 1023, 1024, 1025, 4099} {
		full := make([]int32, n)
		for i := range full {
			full[i] = int32(i)
		}
		sels := map[string][]int32{"empty": nil, "full": full, "gapped": randSel(r, n)}
		for _, width := range []int{32, 64} {
			mins, ext := mins32, ext32
			if width == 64 {
				mins, ext = mins64, ext64
			}
			for _, ms := range memberSets(r, mins) {
				words := memberKeys(r, ms, n, ext)
				set := ms.set()
				var dense, sparse func(sel, out []int32) int
				if width == 32 {
					keys := make([]int32, n)
					for i, w := range words {
						keys[i] = int32(uint32(w))
						words[i] = uint64(uint32(w)) // the word the kernel tests
					}
					dense = func(_, out []int32) int { return SelectMembers(keys, set, out) }
					sparse = func(sel, out []int32) int { return SelectMembersSparse(keys, set, sel, out) }
					same(fmt.Sprintf("SelectMembersGo n=%d %s", n, ms.name), filterSel(full, func(s int32) bool {
						return isMember(ms.bitmap, ms.words, ms.min, uint64(uint32(keys[s])))
					}), func(out []int32) int { return SelectMembersGo(keys, set, out) }, n)
				} else {
					keys := make([]int64, n)
					for i, w := range words {
						keys[i] = int64(w)
					}
					dense = func(_, out []int32) int { return SelectMembers64(keys, set, out) }
					sparse = func(sel, out []int32) int { return SelectMembersSparse64(keys, set, sel, out) }
				}
				keep := func(s int32) bool { return isMember(ms.bitmap, ms.words, ms.min, words[s]) }
				name := fmt.Sprintf("%d-bit n=%d %s", width, n, ms.name)
				same(name+" dense", filterSel(full, keep), func(out []int32) int { return dense(nil, out) }, n)
				for sn, sel := range sels {
					want := filterSel(sel, keep)
					same(name+" "+sn+" sel", want, func(out []int32) int { return sparse(sel, out) }, len(sel))
					same(name+" "+sn+" sel in place", want, func(out []int32) int {
						copy(out, sel)
						return sparse(out, out)
					}, len(sel))
				}
			}
		}
	}
}

// TestKeySetsMatchHashtable pins BitmapSet and SlotSet to the tables
// whose words they read: a sparse build publishes a key filter and a dense one a
// key index, and either set's members are exactly the build keys.
func TestKeySetsMatchHashtable(t *testing.T) {
	publish := func(keys []uint64) *hashtable.Table {
		ht := hashtable.New(1, 1)
		for _, k := range keys {
			ref, _ := ht.Shard(0).Alloc(ht, hashtable.Mix64(k))
			ht.SetWord(ref, 0, k)
		}
		ht.KeyBounds(0)
		ht.PrepareKeyFilter()
		ht.InsertShard(0)
		return ht
	}
	var sparseKeys, denseKeys []uint64
	for k := 1000; k < 4000; k += 7 {
		sparseKeys = append(sparseKeys, uint64(k))
	}
	for k := -300; k < 300; k += 2 {
		denseKeys = append(denseKeys, uint64(int64(k)))
	}
	probes := make([]int64, 0, 10000)
	for k := int64(-1000); k < 5000; k++ {
		probes = append(probes, k)
	}
	out := make([]int32, len(probes))
	for _, tc := range []struct {
		name string
		keys []uint64
	}{{"filter", sparseKeys}, {"index", denseKeys}} {
		ht := publish(tc.keys)
		var set KeySet
		switch ix, kf := ht.KeyIndex(), ht.KeyFilter(); {
		case tc.name == "index" && ix.On():
			set = SlotSet(ix.Slots())
		case tc.name == "filter" && kf.Bits() > 0:
			set = BitmapSet(kf.Words())
		default:
			t.Fatalf("%s build published neither layout it was drawn for", tc.name)
		}
		build := map[uint64]bool{}
		for _, k := range tc.keys {
			build[k] = true
		}
		var want []int32
		for i, k := range probes {
			if build[uint64(k)] {
				want = append(want, int32(i))
			}
		}
		if k := SelectMembers64(probes, set, out); !equalSel(want, out[:k], k) || len(want) == 0 {
			t.Errorf("%s: %d members, want %d (> 0)", tc.name, k, len(want))
		}
	}
}

// TestMembershipKernelsPanicOutsideData pins that a selection reaching
// past the keys panics on either path, as an index would, instead of
// gathering from beyond the column.
func TestMembershipKernelsPanicOutsideData(t *testing.T) {
	k32, k64 := make([]int32, 16), make([]int64, 16)
	set := BitmapSet([]uint64{^uint64(0)}, 0)
	sel := make([]int32, 16)
	for i := range sel {
		sel[i] = int32(i + 1) // the last position is len(keys)
	}
	out := make([]int32, 16)
	for _, tc := range []struct {
		name   string
		kernel func() int
	}{
		{"SelectMembersSparse", func() int { return SelectMembersSparse(k32, set, sel, out) }},
		{"SelectMembersSparse64", func() int { return SelectMembersSparse64(k64, set, sel, out) }},
	} {
		for _, goPath := range []bool{false, true} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s (Go path %v): no panic on a position past the keys", tc.name, goPath)
					}
				}()
				if goPath {
					onGoPath(tc.kernel)
				} else {
					tc.kernel()
				}
			}()
		}
	}
}

// BenchmarkMembershipKernels times one 1024-row block of each
// membership kernel on the Go path and, where the CPU has it, on the
// AVX-512 path: a 64 KB bitmap (cache resident) and a 4096-slot index,
// each holding about 6 % of the probed keys, dense and through a 40 %
// selection.
func BenchmarkMembershipKernels(b *testing.B) {
	const n, span = 1024, 1 << 19
	r := rand.New(rand.NewSource(41))
	bits := make([]uint64, span/64)
	for i := range bits {
		for j := 0; j < 4; j++ {
			bits[i] |= 1 << r.Intn(64)
		}
	}
	slots := make([]uint64, 4096)
	for i := range slots {
		if r.Intn(2) == 0 {
			slots[i] = uint64(1 + i)
		}
	}
	k32, k64 := make([]int32, n), make([]int64, n)
	ki32 := make([]int32, n)
	for i := range k32 {
		k32[i] = int32(r.Intn(span))
		k64[i] = int64(k32[i])
		ki32[i] = int32(r.Intn(8 * len(slots)))
	}
	var sel []int32
	for i := 0; i < n; i++ {
		if r.Intn(5) < 2 {
			sel = append(sel, int32(i))
		}
	}
	bm, ix := BitmapSet(bits, 0), SlotSet(slots, 0)
	out := make([]int32, n)
	kernels := []struct {
		name string
		run  func() int
	}{
		{"bitmap/dense32", func() int { return SelectMembers(k32, bm, out) }},
		{"bitmap/dense64", func() int { return SelectMembers64(k64, bm, out) }},
		{"bitmap/sparse32", func() int { return SelectMembersSparse(k32, bm, sel, out) }},
		{"bitmap/sparse64", func() int { return SelectMembersSparse64(k64, bm, sel, out) }},
		{"index/dense32", func() int { return SelectMembers(ki32, ix, out) }},
		{"index/sparse32", func() int { return SelectMembersSparse(ki32, ix, sel, out) }},
	}
	for _, kn := range kernels {
		b.Run(kn.name+"/go", func(b *testing.B) {
			onGoPath(func() int {
				for i := 0; i < b.N; i++ {
					kn.run()
				}
				return 0
			})
		})
		if useAVX512 {
			b.Run(kn.name+"/avx512", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					kn.run()
				}
			})
		}
	}
}
