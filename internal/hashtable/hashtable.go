// Package hashtable implements the chaining hash table shared by both
// query engines, plus the Murmur2 and CRC-based hash functions the paper
// settles on (§4.1).
//
// Layout follows the paper (§3.2): the table is a power-of-two directory
// of 64-bit words; each word packs a 48-bit reference to the head of a
// collision chain together with a 16-bit Bloom-filter-like tag that is the
// OR of one tag bit per entry hashed into the bucket. A probe whose tag
// bit is absent skips the chain walk entirely, which makes selective joins
// cheap ("a probe miss usually does not have to traverse the collision
// list").
//
// Entries live in per-worker arenas of 64-bit words ("shards"), in row
// format for cache locality. A reference encodes (shard, word offset), so
// arenas may grow during the build phase without invalidating references.
// Directory insertion uses a CAS loop per bucket, enabling the
// morsel-driven parallel build both engines share (§6.1).
//
// A join table published with PrepareKeyFilter gets one of two layouts,
// chosen from its exact key bounds. When the build keys are dense (key
// span ≤ 2 × rows), the directory is a KeyIndex: slot k − min heads the
// chain of the rows with key k, so a probe computes no hash and walks no
// foreign key. Otherwise the table keeps the hashed directory and carries
// an exact membership bitmap over its build keys (KeyFilter): a probe
// tests the key's bit before hashing, so a miss skips the hash, the
// directory load and the chain.
package hashtable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"sync/atomic"
	"unsafe"
)

// Ref references an entry row: 6 bits shard id, 42 bits word offset within
// the shard. The zero Ref is "no entry" (offset 0 is never allocated).
type Ref uint64

const (
	refOffsetBits = 42
	refOffsetMask = (1 << refOffsetBits) - 1
	refShardBits  = 6
	// MaxShards is the maximum number of per-worker arenas per table.
	MaxShards = 1 << refShardBits
	refMask   = (1 << (refOffsetBits + refShardBits)) - 1 // low 48 bits
	tagShift  = 48
)

func makeRef(shard, off uint64) Ref { return Ref(shard<<refOffsetBits | off) }

func (r Ref) shard() uint64  { return uint64(r) >> refOffsetBits }
func (r Ref) offset() uint64 { return uint64(r) & refOffsetMask }

// Tag derives the 16-bit Bloom tag for a hash: a single bit selected by
// hash bits not used for directory indexing (the directory uses low bits).
func Tag(hash uint64) uint64 { return 1 << (hash >> tagShift & 15) << tagShift }

// entry header: word 0 = next Ref, word 1 = hash, words 2.. = payload.
const headerWords = 2

// Shard is a per-worker arena. Alloc is not safe for concurrent use; each
// worker owns one shard.
type Shard struct {
	words []uint64
	rows  int
	id    uint64
	// kmin, kmax bound payload word 0 over the shard's rows (signed),
	// set by KeyBounds before a keyed publish.
	kmin, kmax int64
}

// Table is the shared chaining hash table.
type Table struct {
	dir      []uint64
	mask     uint64
	rowWords int // headerWords + payload words
	shards   []*Shard
	// UseTags controls the 16-bit Bloom tag fast path; on by default.
	// The fig-tag ablation bench switches it off.
	UseTags bool
	keys    KeyFilter
	idx     KeyIndex
}

// KeyIndex is the directory of a key-indexed join table: slot k − min
// heads the chain of the build rows whose key (payload word 0) is k, so
// every entry on a chain matches its probe key. It replaces both the
// hashed directory and the KeyFilter: the range test k − min < span and
// an empty slot reject what the bitmap rejected. The zero KeyIndex
// (table not key-indexed) has On() == false.
type KeyIndex struct {
	slots []uint64
	min   uint64
}

// On reports whether the table is key-indexed.
func (x KeyIndex) On() bool { return x.slots != nil }

// Head returns the first build row with key k, or 0 when there is none.
func (x KeyIndex) Head(k uint64) Ref {
	d := k - x.min
	if d >= uint64(len(x.slots)) {
		return 0
	}
	return Ref(x.slots[d])
}

// Slots returns the index's slots (slot k − min is the head Ref of key
// k's chain, 0 when k is absent) and min, for the membership kernels of
// internal/simd. Callers must not write the slots.
func (x KeyIndex) Slots() ([]uint64, uint64) { return x.slots, x.min }

// KeyFilter is an exact membership bitmap over a join table's build
// keys (payload word 0): bit k − min is set for every build key k. A key
// outside [min, max] or with a clear bit is certainly absent; a set bit
// sends the probe on to the directory, so duplicate keys still find
// every match. The zero KeyFilter (no bitmap) rejects nothing.
//
// Bits past max − min are clear, so the range test is against the
// bitmap's length. Probes test the bitmap through internal/simd's
// membership kernels (Words).
type KeyFilter struct {
	bits []uint64
	min  uint64
}

// Bits returns the bitmap's size in bits, 0 when the table has none.
func (f KeyFilter) Bits() int { return 64 * len(f.bits) }

// Words returns the bitmap (bit d&63 of word d>>6 is key min + d) and
// min, for the membership kernels of internal/simd. Callers must not
// write the words.
func (f KeyFilter) Words() ([]uint64, uint64) { return f.bits, f.min }

// set marks k present. Workers inserting distinct shards share bitmap
// words, so the OR is a CAS loop.
func (f KeyFilter) set(k uint64) {
	d := k - f.min
	w, b := &f.bits[d>>6], uint64(1)<<(d&63)
	for {
		old := atomic.LoadUint64(w)
		if old&b != 0 || atomic.CompareAndSwapUint64(w, old, old|b) {
			return
		}
	}
}

// New creates a table whose entries carry payloadWords 64-bit payload
// words, with arenas for numShards workers. Directory allocation is
// deferred to Finalize (join build) or Prepare (aggregation).
func New(payloadWords, numShards int) *Table {
	if numShards <= 0 || numShards > MaxShards {
		panic(fmt.Sprintf("hashtable: numShards %d out of range (1..%d)", numShards, MaxShards))
	}
	if payloadWords < 0 {
		panic("hashtable: negative payloadWords")
	}
	t := &Table{rowWords: headerWords + payloadWords, UseTags: true}
	t.shards = make([]*Shard, numShards)
	for i := range t.shards {
		// Word 0 of every shard is reserved so that Ref 0 means "nil".
		t.shards[i] = &Shard{words: make([]uint64, 1, 1+16*t.rowWords), id: uint64(i)}
	}
	return t
}

// Shard returns worker i's arena.
func (t *Table) Shard(i int) *Shard { return t.shards[i] }

// RowWords returns the full row width in words, including the header.
func (t *Table) RowWords() int { return t.rowWords }

// Alloc appends one row with the given hash to the shard and returns its
// reference plus a pointer to the payload (payloadWords words). The
// pointer is invalidated by the next Alloc on the same shard; the Ref is
// stable.
func (s *Shard) Alloc(t *Table, hash uint64) (Ref, unsafe.Pointer) {
	off := uint64(len(s.words))
	if off > refOffsetMask-uint64(t.rowWords) {
		panic("hashtable: shard arena overflow")
	}
	if need := int(off) + t.rowWords; need > cap(s.words) {
		grown := make([]uint64, len(s.words), 2*need)
		copy(grown, s.words)
		s.words = grown
	}
	s.words = s.words[:int(off)+t.rowWords]
	s.words[off+1] = hash
	s.words[off] = 0
	for i := headerWords; i < t.rowWords; i++ {
		s.words[off+uint64(i)] = 0
	}
	s.rows++
	return makeRef(s.id, off), unsafe.Pointer(&s.words[off+headerWords])
}

// AllocN appends n rows at once and returns the Ref of the first; rows are
// contiguous (stride RowWords). Used by vectorized build primitives to
// amortize the append.
func (s *Shard) AllocN(t *Table, n int) Ref {
	off := uint64(len(s.words))
	need := n * t.rowWords
	if off > refOffsetMask-uint64(need) {
		panic("hashtable: shard arena overflow")
	}
	s.words = append(s.words, make([]uint64, need)...)
	s.rows += n
	return makeRef(s.id, off)
}

// Rows returns the number of rows allocated across all shards.
func (t *Table) Rows() int {
	n := 0
	for _, s := range t.shards {
		n += s.rows
	}
	return n
}

// Prepare allocates the directory for an expected number of entries
// without inserting anything. Capacity is the next power of two that is at
// least twice the expectation (load factor ≤ 0.5, as in the paper's test
// system).
func (t *Table) Prepare(expected int) {
	if expected < 1 {
		expected = 1
	}
	size := 1 << uint(bits.Len(uint(2*expected-1)))
	if size < 64 {
		size = 64
	}
	t.dir = make([]uint64, size)
	t.mask = uint64(size - 1)
	t.keys = KeyFilter{}
	t.idx = KeyIndex{}
}

// PreAggCapacity bounds a worker's thread-local pre-aggregation table
// (phase one of the shared two-phase aggregation) so it stays cache
// resident; groups past it spill as single-tuple partials.
const PreAggCapacity = 1 << 14

// AggRoom reports whether a thread-local pre-aggregation table may take
// one more group. A table starts at Prepare's 64-slot floor and doubles
// its directory, re-inserting its own rows, whenever its rows reach half
// the slots; it stops taking groups at PreAggCapacity, with the
// directory an eager Prepare(PreAggCapacity) would have allocated. So a
// small input allocates a small table. Single-threaded use only.
func (t *Table) AggRoom() bool {
	n := t.Rows()
	if n >= PreAggCapacity {
		return false
	}
	if 2*n >= len(t.dir) {
		t.dir = make([]uint64, 2*len(t.dir))
		t.mask = uint64(len(t.dir) - 1)
		t.ForEach(func(ref Ref) { t.Insert(ref, t.Hash(ref)) })
	}
	return true
}

// KeyBounds records the signed minimum and maximum of payload word 0
// over shard i's rows — the first half of a keyed publish, run by the
// shard's worker before the barrier that calls PrepareKeyFilter.
func (t *Table) KeyBounds(i int) {
	s := t.shards[i]
	s.kmin, s.kmax = math.MaxInt64, math.MinInt64
	if t.rowWords == headerWords {
		return
	}
	rw := uint64(t.rowWords)
	for off := uint64(1 + headerWords); off < uint64(len(s.words)); off += rw {
		k := int64(s.words[off])
		s.kmin = min(s.kmin, k)
		s.kmax = max(s.kmax, k)
	}
}

// PrepareKeyFilter is the one place a join table's directory layout is
// chosen, from the merged KeyBounds of its shards and its row count —
// both exact once every shard is materialized. When the key span is at
// most twice the rows, the table is key-indexed: a KeyIndex of span
// slots, never larger than the hashed directory it replaces (≥ 2 ×
// rows slots), and no hashed directory or bitmap at all; an empty build
// is key-indexed with no slots. Otherwise it is Prepare(Rows()) plus,
// when the span fits in as many bits as the directory has bits (span ≤
// 64 × slots, so the bitmap is never larger than the directory it
// fronts), the KeyFilter that InsertShard then fills. A keyless row or
// a span that wraps 64 bits gets the hashed directory without a filter.
func (t *Table) PrepareKeyFilter() {
	rows := t.Rows()
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, s := range t.shards {
		if s.rows > 0 {
			lo, hi = min(lo, s.kmin), max(hi, s.kmax)
		}
	}
	span := uint64(hi) - uint64(lo) + 1 // 0 when the span wraps
	bounded := lo <= hi && span != 0
	switch {
	case rows == 0:
		t.dir, t.mask, t.keys = nil, 0, KeyFilter{}
		t.idx = KeyIndex{slots: []uint64{}}
	case bounded && span <= 2*uint64(rows):
		t.dir, t.mask, t.keys = nil, 0, KeyFilter{}
		t.idx = KeyIndex{slots: make([]uint64, span), min: uint64(lo)}
	default:
		t.Prepare(rows)
		if bounded && span <= 64*uint64(len(t.dir)) {
			t.keys = KeyFilter{bits: make([]uint64, (span+63)/64), min: uint64(lo)}
		}
	}
}

// KeyFilter returns the table's key filter (the zero KeyFilter when the
// table was not published with PrepareKeyFilter, or is key-indexed).
func (t *Table) KeyFilter() KeyFilter { return t.keys }

// KeyIndex returns the table's key index (the zero KeyIndex when the
// table has a hashed directory).
func (t *Table) KeyIndex() KeyIndex { return t.idx }

// DirSize returns the number of directory slots of either layout (0
// before Prepare).
func (t *Table) DirSize() int { return len(t.dir) + len(t.idx.slots) }

// Finalize sizes the directory for all allocated rows and inserts every
// row from every shard (single-threaded). For a parallel build, call
// Prepare(Rows()) after the materialization barrier and have each worker
// call InsertShard.
func (t *Table) Finalize() {
	t.Prepare(t.Rows())
	for i := range t.shards {
		t.InsertShard(i)
	}
}

// InsertShard inserts every row of shard i into the directory — its key
// slot when the table is key-indexed — and its key into the key filter
// when the table has one. Safe to call concurrently for distinct shards
// once Prepare (or PrepareKeyFilter) has run.
func (t *Table) InsertShard(i int) {
	s := t.shards[i]
	rw := uint64(t.rowWords)
	if ix := t.idx; ix.On() {
		for off := uint64(1); off < uint64(len(s.words)); off += rw {
			slot := &ix.slots[s.words[off+headerWords]-ix.min]
			ref := uint64(makeRef(uint64(i), off))
			for {
				old := atomic.LoadUint64(slot)
				s.words[off] = old // chain to the slot's previous head
				if atomic.CompareAndSwapUint64(slot, old, ref) {
					break
				}
			}
		}
		return
	}
	kf := t.keys
	for off := uint64(1); off < uint64(len(s.words)); off += rw {
		t.insertCAS(makeRef(uint64(i), off), s.words[off+1])
		if kf.bits != nil {
			kf.set(s.words[off+headerWords])
		}
	}
}

// insertCAS pushes one entry onto its bucket chain with a CAS loop,
// accumulating its tag bit into the directory word.
func (t *Table) insertCAS(ref Ref, hash uint64) {
	slot := &t.dir[hash&t.mask]
	sh := t.shards[ref.shard()]
	next := &sh.words[ref.offset()]
	for {
		old := atomic.LoadUint64(slot)
		*next = old & refMask // chain to previous head (untagged)
		nw := uint64(ref) | (old &^ uint64(refMask)) | Tag(hash)
		if atomic.CompareAndSwapUint64(slot, old, nw) {
			return
		}
	}
}

// Insert pushes one entry without atomics. Only for single-threaded use
// (thread-local pre-aggregation tables, partition merge tables).
func (t *Table) Insert(ref Ref, hash uint64) {
	slot := &t.dir[hash&t.mask]
	old := *slot
	sh := t.shards[ref.shard()]
	sh.words[ref.offset()] = old & refMask
	*slot = uint64(ref) | (old &^ uint64(refMask)) | Tag(hash)
}

// Lookup returns the head of the bucket chain for hash, or 0 when the
// bucket is empty or the Bloom tag proves the key absent. A key-indexed
// table has no hashed directory, so Lookup on it panics: its readers
// must go through KeyIndex.
func (t *Table) Lookup(hash uint64) Ref {
	w := t.dir[hash&t.mask]
	if t.UseTags {
		if w&Tag(hash) == 0 {
			return 0
		}
	}
	return Ref(w & refMask)
}

// LookupDirWord returns the raw directory word for hash. Traced query
// twins use it so the microsimulator can observe the directory load.
func (t *Table) LookupDirWord(hash uint64) uint64 { return t.dir[hash&t.mask] }

// DirWordAddr returns the address of the directory word for hash, for
// memory tracing.
func (t *Table) DirWordAddr(hash uint64) unsafe.Pointer { return unsafe.Pointer(&t.dir[hash&t.mask]) }

// DecodeDirWord splits a directory word into chain head and tag check.
func DecodeDirWord(w, hash uint64, useTags bool) Ref {
	if useTags && w&Tag(hash) == 0 {
		return 0
	}
	return Ref(w & refMask)
}

// Next follows the collision chain.
func (t *Table) Next(ref Ref) Ref {
	return Ref(t.shards[ref.shard()].words[ref.offset()] & refMask)
}

// Hash returns the stored hash of an entry.
func (t *Table) Hash(ref Ref) uint64 {
	return t.shards[ref.shard()].words[ref.offset()+1]
}

// Payload returns a pointer to the entry's payload words.
func (t *Table) Payload(ref Ref) unsafe.Pointer {
	s := t.shards[ref.shard()]
	return unsafe.Pointer(&s.words[ref.offset()+headerWords])
}

// PayloadAddr is an alias of Payload for tracing readability.
func (t *Table) PayloadAddr(ref Ref) unsafe.Pointer { return t.Payload(ref) }

// EntryAddr returns the address of an entry's header (next pointer),
// for memory tracing by the micro-architectural simulator.
func (t *Table) EntryAddr(ref Ref) unsafe.Pointer {
	s := t.shards[ref.shard()]
	return unsafe.Pointer(&s.words[ref.offset()])
}

// SetHash stores the hash of an entry (used by vectorized builds that
// allocate rows in bulk with AllocN and scatter hashes afterwards).
func (t *Table) SetHash(ref Ref, h uint64) {
	t.shards[ref.shard()].words[ref.offset()+1] = h
}

// RefAt returns the i-th row after base within one AllocN block.
func (t *Table) RefAt(base Ref, i int) Ref {
	return Ref(uint64(base) + uint64(i*t.rowWords))
}

// Word returns payload word i of the entry.
func (t *Table) Word(ref Ref, i int) uint64 {
	s := t.shards[ref.shard()]
	return s.words[ref.offset()+headerWords+uint64(i)]
}

// Row returns the entry's payload words as one slice (length = payload
// width), resolving the shard and offset once — the generic executor's
// replacement for the struct-pointer casts of the hand-written
// pipelines. The slice aliases the shard arena: like Alloc's payload
// pointer it is invalidated by a later Alloc on the same shard (arena
// growth may reallocate), so use it before allocating again.
func (t *Table) Row(ref Ref) []uint64 {
	s := t.shards[ref.shard()]
	off := ref.offset() + headerWords
	return s.words[off : off+uint64(t.rowWords-headerWords)]
}

// SetWord stores payload word i of the entry.
func (t *Table) SetWord(ref Ref, i int, v uint64) {
	s := t.shards[ref.shard()]
	s.words[ref.offset()+headerWords+uint64(i)] = v
}

// ForEach visits every allocated row of every shard (insertion order
// within a shard). Used to flush thread-local pre-aggregation tables and
// to emit final groups.
func (t *Table) ForEach(fn func(ref Ref)) {
	rw := uint64(t.rowWords)
	for i, s := range t.shards {
		for off := uint64(1); off+rw <= uint64(len(s.words)); off += rw {
			fn(makeRef(uint64(i), off))
		}
	}
}

// Reset drops all rows and the directory, keeping shard capacity.
func (t *Table) Reset() {
	for _, s := range t.shards {
		s.words = s.words[:1]
		s.rows = 0
	}
	t.dir = nil
	t.mask = 0
	t.keys = KeyFilter{}
	t.idx = KeyIndex{}
}

// MemoryFootprint reports directory + key filter + arena bytes, used by
// the working-set experiments (Fig. 9).
func (t *Table) MemoryFootprint() int64 {
	total := int64(len(t.dir)+len(t.keys.bits)+len(t.idx.slots)) * 8
	for _, s := range t.shards {
		total += int64(cap(s.words)) * 8
	}
	return total
}

// ---------------------------------------------------------------------
// Hash functions (§4.1): Murmur2 for Tectorwise, CRC-combining for Typer.
// ---------------------------------------------------------------------

// Murmur2 is MurmurHash64A for a single 64-bit key, the hash function the
// paper selects for Tectorwise: more instructions than CRC but higher
// throughput when hashing is separated from probing.
func Murmur2(k uint64) uint64 {
	const m = 0xc6a4a7935bd1e995
	const seed = 0x8445d61a4e774912
	keyLen := uint64(8)
	h := uint64(seed) ^ keyLen*m
	k *= m
	k ^= k >> 47
	k *= m
	h ^= k
	h *= m
	h ^= h >> 47
	h *= m
	h ^= h >> 47
	return h
}

// Murmur2Bytes hashes an arbitrary byte string with MurmurHash64A.
func Murmur2Bytes(data []byte) uint64 {
	const m = 0xc6a4a7935bd1e995
	const seed = 0x8445d61a4e774912
	h := uint64(seed) ^ uint64(len(data))*m
	for len(data) >= 8 {
		k := binary.LittleEndian.Uint64(data)
		k *= m
		k ^= k >> 47
		k *= m
		h ^= k
		h *= m
		data = data[8:]
	}
	if len(data) > 0 {
		var tail uint64
		for i := len(data) - 1; i >= 0; i-- {
			tail = tail<<8 | uint64(data[i])
		}
		h ^= tail
		h *= m
	}
	h ^= h >> 47
	h *= m
	h ^= h >> 47
	return h
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// CRC combines two 32-bit CRC32-C results over a 64-bit key into a 64-bit
// hash, the low-latency function the paper selects for Typer. The standard
// library uses the SSE4.2 CRC32 instruction on amd64, matching the paper's
// hardware-CRC setup.
func CRC(k uint64) uint64 {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], k)
	lo := crc32.Update(0x13579bdf, crcTable, buf[:])
	hi := crc32.Update(0x2468ace0, crcTable, buf[:])
	h := uint64(lo) | uint64(hi)<<32
	// Spread the combined value so that low directory bits depend on both
	// halves (one multiply, as in HyPer's CRC hash).
	return h * 0x2545f4914f6cdd1d
}

// Mix64 is MurmurHash3's 64-bit finalizer (fmix64): two multiplies and
// three xor-shifts with full avalanche.
//
// It stands in for the paper's CRC32-instruction hash in Typer
// (DESIGN.md S1/S7 discussion): portable Go cannot emit the raw CRC32
// instruction, and hash/crc32's per-call overhead on 8-byte keys is ~20×
// a multiplicative hash (see BenchmarkCRC), which would invert the
// engines' comparison for reasons unrelated to the execution paradigm.
// Mix64 preserves the property the paper attributes to CRC hashing:
// roughly half the instructions of Murmur2 and lower latency, which
// benefits the speculative pipelining of Typer's fused loops (§4.1).
func Mix64(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}

// HashCombine mixes a second key's hash into an existing hash; both
// engines use it identically for composite keys.
func HashCombine(h, h2 uint64) uint64 {
	h ^= h2 + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
	return h
}
