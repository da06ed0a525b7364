package tw

import (
	"paradigms/internal/exec"
	"paradigms/internal/hashtable"
	"paradigms/internal/simd"
	"paradigms/internal/vector"
)

// Vectorized hash-join machinery, following Figure 2b of the paper: the
// probe side is processed with findCandidates / compare / advance
// primitives over candidate vectors; the build side is materialized with
// bulk-allocate + scatter primitives and published with the shared
// two-barrier protocol.

// FindCandidates looks up the directory for each of the n probe hashes
// and compacts the non-empty chain heads into cand, recording each
// candidate's originating probe position in candPos. The 16-bit Bloom
// tags filter definite misses here (§3.2).
func FindCandidates(ht *hashtable.Table, hashes []uint64, n int, cand []hashtable.Ref, candPos []int32) int {
	k := 0
	for i := 0; i < n; i++ {
		ref := ht.Lookup(hashes[i])
		cand[k] = ref
		candPos[k] = int32(i)
		if ref != 0 {
			k++
		}
	}
	return k
}

// IndexCandidates is FindCandidates for a key-indexed table: each probe
// key's slot (hashtable.KeyIndex) is its chain head, found without a
// hash, and every entry on that chain carries the probe's key.
func IndexCandidates(ix hashtable.KeyIndex, keys []uint64, n int, cand []hashtable.Ref, candPos []int32) int {
	k := 0
	for i, key := range keys[:n] {
		ref := ix.Head(key)
		cand[k] = ref
		candPos[k] = int32(i)
		if ref != 0 {
			k++
		}
	}
	return k
}

// CheckKeysU64 compares each candidate entry's stored hash and 64-bit key
// (payload word 0) against the probe key at its position; hits are
// appended to (matchRefs, matchPos) starting at nm. Returns the new match
// count. Candidates remain for chain advancement regardless of hit, so
// multi-match joins find every duplicate.
func CheckKeysU64(ht *hashtable.Table, cand []hashtable.Ref, candPos []int32, nc int,
	keys, hashes []uint64, matchRefs []hashtable.Ref, matchPos []int32, nm int) int {
	for i := 0; i < nc; i++ {
		p := candPos[i]
		ref := cand[i]
		if ht.Hash(ref) == hashes[p] && ht.Word(ref, 0) == keys[p] {
			matchRefs[nm] = ref
			matchPos[nm] = p
			nm++
		}
	}
	return nm
}

// NextCandidates advances every candidate along its collision chain and
// compacts the survivors.
func NextCandidates(ht *hashtable.Table, cand []hashtable.Ref, candPos []int32, nc int) int {
	k := 0
	for i := 0; i < nc; i++ {
		ref := ht.Next(cand[i])
		cand[k] = ref
		candPos[k] = candPos[i]
		if ref != 0 {
			k++
		}
	}
	return k
}

// Prober is one worker's vectorized join probe: the hash function of
// the tables it probes and its scratch vectors, each at least as long as
// the longest probe vector. Keys may be the caller's key vector (the
// compaction runs in place); Pos is free again once Probe returns.
type Prober struct {
	Hash         func(keys, res []uint64)
	Keys, Hashes []uint64
	Cand         []hashtable.Ref
	CandPos, Pos []int32
	// Staged skips the key filter: a membership stage ahead of the
	// probe (logical.(*Pipeline).Members) already dropped every key it
	// rejects.
	Staged bool
}

// NewProber returns a Prober over fresh vectors from bufs, hashing with
// MapHashU64.
func NewProber(bufs *vector.Buffers) *Prober {
	return &Prober{Hash: MapHashU64, Keys: bufs.Ref(), Hashes: bufs.Ref(),
		Cand: bufs.Entries(), CandPos: bufs.Sel(), Pos: bufs.Sel()}
}

// Probe joins n probe keys against ht and returns the match count: the
// matched entries in matchRefs, their positions in keys in matchPos. It
// is the operator control logic of Figure 2b. A key-indexed table is
// probed without hashing: every entry on a key's slot chain is a match,
// so the chains are walked with no key compare. Otherwise the table's
// key filter goes first, unless p.Staged: one membership kernel
// (simd.SelectMembers64) selects the keys it passes, which are
// compacted into p.Keys, so a miss costs neither a hash nor a directory
// load. The rest are hashed, then run through the three primitives
// above until every chain is walked.
func (p *Prober) Probe(ht *hashtable.Table, keys []uint64, n int, matchRefs []hashtable.Ref, matchPos []int32) int {
	if ix := ht.KeyIndex(); ix.On() {
		nc := IndexCandidates(ix, keys, n, p.Cand, p.CandPos)
		nm := 0
		for nc > 0 {
			copy(matchRefs[nm:], p.Cand[:nc])
			copy(matchPos[nm:], p.CandPos[:nc])
			nm += nc
			nc = NextCandidates(ht, p.Cand, p.CandPos, nc)
		}
		return nm
	}
	kf := ht.KeyFilter()
	if p.Staged || kf.Bits() == 0 {
		p.Hash(keys[:n], p.Hashes)
		return p.candidates(ht, keys, n, matchRefs, matchPos)
	}
	k := simd.SelectMembers64(keys[:n], simd.BitmapSet(kf.Words()), p.Pos)
	for j, s := range p.Pos[:k] {
		p.Keys[j] = keys[s] // s >= j: compacting in place is safe
	}
	p.Hash(p.Keys[:k], p.Hashes)
	nm := p.candidates(ht, p.Keys, k, matchRefs, matchPos)
	ComposePos(p.Pos, matchPos[:nm], matchPos)
	return nm
}

// candidates runs the candidate loop over n hashed keys.
func (p *Prober) candidates(ht *hashtable.Table, keys []uint64, n int, matchRefs []hashtable.Ref, matchPos []int32) int {
	nc := FindCandidates(ht, p.Hashes, n, p.Cand, p.CandPos)
	nm := 0
	for nc > 0 {
		nm = CheckKeysU64(ht, p.Cand, p.CandPos, nc, keys, p.Hashes, matchRefs, matchPos, nm)
		nc = NextCandidates(ht, p.Cand, p.CandPos, nc)
	}
	return nm
}

// ScatterHashes stores hashes into n freshly AllocN'd rows.
func ScatterHashes(ht *hashtable.Table, base hashtable.Ref, hashes []uint64, n int) {
	for i := 0; i < n; i++ {
		ht.SetHash(ht.RefAt(base, i), hashes[i])
	}
}

// ScatterWord stores vals into payload word w of n consecutive rows.
func ScatterWord(ht *hashtable.Table, base hashtable.Ref, w int, vals []uint64, n int) {
	for i := 0; i < n; i++ {
		ht.SetWord(ht.RefAt(base, i), w, vals[i])
	}
}

// ScatterWordI64 stores int64 vals into payload word w of n rows.
func ScatterWordI64(ht *hashtable.Table, base hashtable.Ref, w int, vals []int64, n int) {
	for i := 0; i < n; i++ {
		ht.SetWord(ht.RefAt(base, i), w, uint64(vals[i]))
	}
}

// BuildBarrier publishes a shared hash table after all workers have
// materialized their build rows (key in payload word 0): every worker
// bounds its shard's keys → barrier → size the directory and the key
// filter → every worker inserts its shard → barrier.
func BuildBarrier(ht *hashtable.Table, bar *exec.Barrier, w int) {
	ht.KeyBounds(w)
	bar.Wait(ht.PrepareKeyFilter)
	ht.InsertShard(w)
	bar.Wait(nil)
}
