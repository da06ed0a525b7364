package simd

// Key-membership kernels: the test a join probe makes before any hash,
// gather or chain walk, run over a block of probe keys at once (§5.2,
// the gather-test-compress probe of Polychroniou et al., SIGMOD 2015).
// Both engines narrow a block's selection with them after its range
// filters, so a key with no build match is dropped before it is
// widened, hashed or carried.

// KeySet is a build's exact key set as the membership kernels read it:
// a hashtable.KeyFilter bitmap (key k is a member when bit k − min is
// set) or a hashtable.KeyIndex slot array (when slot k − min is
// non-zero). Both are one word array indexed by (k − min) >> shift and
// tested under a mask: the bitmap shifts by 6 and tests bit
// (k − min) & 63, the slot array shifts by 0 and tests the whole word.
// A key's word form is what the build stores: a 32-bit key
// zero-extended, a 64-bit key as is. The zero KeySet has no members.
type KeySet struct {
	words []uint64
	min   uint64
	shift uint64 // 6 for a bitmap, 0 for slots
	bit   uint64 // (k − min) & bit is the bit to test: 63, or 0 for slots
	test  uint64 // the bits that must not all be clear: 1, or every bit for slots
}

// BitmapSet is the key set of a bitmap whose bit d&63 of word d>>6 is
// key min + d (hashtable.KeyFilter.Words). A table without a filter has
// no words, and an empty set has no members: stage only filters with
// Bits() > 0.
func BitmapSet(words []uint64, min uint64) KeySet {
	return KeySet{words: words, min: min, shift: 6, bit: 63, test: 1}
}

// SlotSet is the key set of a slot array whose slot d is non-zero for
// key min + d (hashtable.KeyIndex.Slots).
func SlotSet(slots []uint64, min uint64) KeySet {
	return KeySet{words: slots, min: min, test: ^uint64(0)}
}

// SelectMembers writes the positions i whose key keys[i] (zero-extended)
// is a member of s to out and returns their count. On a CPU with
// AVX-512 each 8-lane block runs in assembly: subtract min, compare the
// difference unsigned against the set's length into a lane mask, gather
// the word under that mask (VPGATHERQQ), test its bit (VPSRLVQ +
// VPTESTMQ) and compress the members' positions (VPCOMPRESSD). The
// rest, and every block elsewhere, runs the Go loop. out must have room
// for len(keys) positions.
func SelectMembers[T ~int32](keys []T, s KeySet, out []int32) int {
	if len(s.words) == 0 {
		return 0
	}
	i, k := 0, 0
	if useAVX512 && len(keys) >= 8 {
		i = len(keys) &^ 7
		k = membersAVX512(int32s(keys[:i]), s.words, s.min, s.shift, s.bit, s.test, out[:i])
	}
	return membersFrom(keys, s, i, k, out)
}

// SelectMembersGo is SelectMembers on its Go loop alone, on any CPU:
// the scalar baseline fig9 measures the kernel against.
func SelectMembersGo[T ~int32](keys []T, s KeySet, out []int32) int {
	return membersFrom(keys, s, 0, 0, out)
}

// membersFrom is SelectMembers's Go loop over keys[i:], writing
// positions from out[k]; it returns the new count.
func membersFrom[T ~int32](keys []T, s KeySet, i, k int, out []int32) int {
	lim := uint64(len(s.words)) << s.shift
	for ; i < len(keys); i++ {
		out[k] = int32(i)
		if d := uint64(uint32(keys[i])) - s.min; d < lim && s.words[d>>s.shift]>>(d&s.bit)&s.test != 0 {
			k++
		}
	}
	return k
}

// SelectMembers64 is SelectMembers over 64-bit keys.
func SelectMembers64[T ~int64 | ~uint64](keys []T, s KeySet, out []int32) int {
	if len(s.words) == 0 {
		return 0
	}
	i, k := 0, 0
	if useAVX512 && len(keys) >= 8 {
		i = len(keys) &^ 7
		k = members64AVX512(int64s(keys[:i]), s.words, s.min, s.shift, s.bit, s.test, out[:i])
	}
	lim := uint64(len(s.words)) << s.shift
	for ; i < len(keys); i++ {
		out[k] = int32(i)
		if d := uint64(keys[i]) - s.min; d < lim && s.words[d>>s.shift]>>(d&s.bit)&s.test != 0 {
			k++
		}
	}
	return k
}

// SelectMembersSparse narrows the selection vector sel to the positions
// whose key is a member of s; the assembly blocks gather 8 keys through
// sel first. sel ascends, as every selection vector does, and its
// positions index keys. out may alias sel (narrowing in place);
// otherwise it must have room for len(sel) positions.
func SelectMembersSparse[T ~int32](keys []T, s KeySet, sel, out []int32) int {
	if len(s.words) == 0 {
		return 0
	}
	i, k := 0, 0
	if useAVX512 && len(sel) >= 8 {
		i = len(sel) &^ 7
		_ = keys[sel[i-1]] // sel ascends: its last position bounds the gathers
		k = membersSparseAVX512(int32s(keys), s.words, s.min, s.shift, s.bit, s.test, sel[:i], out[:i])
	}
	lim := uint64(len(s.words)) << s.shift
	for _, j := range sel[i:] {
		out[k] = j
		if d := uint64(uint32(keys[j])) - s.min; d < lim && s.words[d>>s.shift]>>(d&s.bit)&s.test != 0 {
			k++
		}
	}
	return k
}

// SelectMembersSparse64 is SelectMembersSparse over 64-bit keys.
func SelectMembersSparse64[T ~int64 | ~uint64](keys []T, s KeySet, sel, out []int32) int {
	if len(s.words) == 0 {
		return 0
	}
	i, k := 0, 0
	if useAVX512 && len(sel) >= 8 {
		i = len(sel) &^ 7
		_ = keys[sel[i-1]] // sel ascends: its last position bounds the gathers
		k = membersSparse64AVX512(int64s(keys), s.words, s.min, s.shift, s.bit, s.test, sel[:i], out[:i])
	}
	lim := uint64(len(s.words)) << s.shift
	for _, j := range sel[i:] {
		out[k] = j
		if d := uint64(keys[j]) - s.min; d < lim && s.words[d>>s.shift]>>(d&s.bit)&s.test != 0 {
			k++
		}
	}
	return k
}
