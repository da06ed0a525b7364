package plan

import (
	"paradigms/internal/exec"
	"paradigms/internal/hashtable"
	"paradigms/internal/tw"
	"paradigms/internal/vector"
)

// Sink terminates a pipeline: Consume absorbs one non-empty batch;
// Finish completes the stage on every worker — flushing local state and
// crossing whatever barrier the downstream pipeline needs (buffer
// ownership: a sink only writes shared state that is either sharded per
// worker or protected by its Finish barrier).
type Sink interface {
	Consume(b *Batch)
	Finish(bar *exec.Barrier, wid int)
}

// ---------------------------------------------------------------------
// HashBuildSink
// ---------------------------------------------------------------------

// HashBuildSink materializes a pipeline's output into a shared hash
// table shard (bulk-allocate + scatter, Figure 2b's build side) and
// publishes the table with the two-barrier build protocol in Finish.
// Payloads land in payload words 1..len(payloads).
type HashBuildSink struct {
	ht       *hashtable.Table
	sh       *hashtable.Shard
	key      VecU64
	hash     HashFn
	payloads []VecU64
	keyBuf   []uint64
	hashes   []uint64
	payBufs  [][]uint64
}

// NewHashBuild creates the build sink for one worker's shard.
func NewHashBuild(bufs *vector.Buffers, ht *hashtable.Table, wid int, key VecU64, payloads ...VecU64) *HashBuildSink {
	payBufs := make([][]uint64, len(payloads))
	for i := range payBufs {
		payBufs[i] = bufs.Ref()
	}
	return &HashBuildSink{
		ht:       ht,
		sh:       ht.Shard(wid),
		key:      key,
		payloads: payloads,
		keyBuf:   bufs.Ref(),
		hashes:   bufs.Ref(),
		payBufs:  payBufs,
	}
}

// SetHash overrides the build-side hash function (nil = engine
// default). Probers of the table must hash the same way; the hybrid
// executor sets the same HashFn on both sides of every join table that
// crosses an engine boundary.
func (h *HashBuildSink) SetHash(fn HashFn) { h.hash = fn }

// Consume implements Sink.
func (h *HashBuildSink) Consume(b *Batch) {
	keys := h.key(b, h.keyBuf)
	if h.hash != nil {
		h.hash(keys[:b.K], h.hashes)
	} else {
		tw.MapHashU64(keys[:b.K], h.hashes)
	}
	base := h.sh.AllocN(h.ht, b.K)
	tw.ScatterHashes(h.ht, base, h.hashes, b.K)
	tw.ScatterWord(h.ht, base, 0, keys, b.K)
	for j, p := range h.payloads {
		tw.ScatterWord(h.ht, base, 1+j, p(b, h.payBufs[j]), b.K)
	}
}

// Finish implements Sink: size the shared directory once, then every
// worker inserts its shard.
func (h *HashBuildSink) Finish(bar *exec.Barrier, wid int) {
	tw.BuildBarrier(h.ht, bar, wid)
}

// ---------------------------------------------------------------------
// GroupBySink
// ---------------------------------------------------------------------

// GroupBySink feeds the shared two-phase aggregation: phase one is
// tw.GroupBy (find-groups / handle-misses / update-aggregates per
// vector), or tw.ArrayGroupBy when the plan chose an array over the
// key's dense domain; Finish spills the worker's pre-aggregated groups
// and crosses the barrier, after which a merge stage drains the spill
// partitions.
type GroupBySink struct {
	gb     *tw.GroupBy
	arr    *tw.ArrayGroupBy
	key    VecU64
	vals   []VecI64
	keyBuf []uint64
	hashes []uint64
	valBuf [][]int64
	dense  [][]int64
}

// NewGroupBy creates hashed phase-one aggregation state for one worker.
func NewGroupBy(bufs *vector.Buffers, spill *hashtable.Spill, wid int, ops []hashtable.AggOp, key VecU64, vals ...VecI64) *GroupBySink {
	g := newGroupBy(bufs, key, vals)
	g.gb = tw.NewGroupBy(spill, wid, ops, bufs.Size())
	g.hashes = bufs.Ref()
	return g
}

// NewArrayGroupBy creates phase-one aggregation state for one worker
// over the span group keys starting at min (in the key's word
// encoding).
func NewArrayGroupBy(bufs *vector.Buffers, spill *hashtable.Spill, wid int, ops []hashtable.AggOp, min uint64, span int, key VecU64, vals ...VecI64) *GroupBySink {
	g := newGroupBy(bufs, key, vals)
	g.arr = tw.NewArrayGroupBy(spill, wid, ops, bufs.Size(), min, span)
	return g
}

func newGroupBy(bufs *vector.Buffers, key VecU64, vals []VecI64) *GroupBySink {
	valBuf := make([][]int64, len(vals))
	for i := range valBuf {
		valBuf[i] = bufs.I64()
	}
	return &GroupBySink{
		key:    key,
		vals:   vals,
		keyBuf: bufs.Ref(),
		valBuf: valBuf,
		dense:  make([][]int64, len(vals)),
	}
}

// Consume implements Sink.
func (g *GroupBySink) Consume(b *Batch) {
	keys := g.key(b, g.keyBuf)
	for j, v := range g.vals {
		g.dense[j] = v(b, g.valBuf[j])
	}
	if g.arr != nil {
		g.arr.Consume(b.K, keys, g.dense)
		return
	}
	tw.MapHashU64(keys[:b.K], g.hashes)
	g.gb.Consume(b.K, keys, g.hashes, g.dense)
}

// Finish implements Sink.
func (g *GroupBySink) Finish(bar *exec.Barrier, wid int) {
	if g.arr != nil {
		g.arr.Flush()
	} else {
		g.gb.Flush()
	}
	bar.Wait(nil)
}

// MergeStage drains aggregation spill partitions (phase two,
// hashtable.MergeSpill — identical code for both engines) and emits each
// merged group row to the caller.
func MergeStage(partDisp *exec.Dispatcher, spill *hashtable.Spill, ops []hashtable.AggOp, emit func(wid int, row []uint64)) Stage {
	return Stage{Run: func(wid int) {
		for {
			pm, ok := partDisp.Next()
			if !ok {
				break
			}
			hashtable.MergeSpill(spill, pm.Begin, ops, func(row []uint64) {
				emit(wid, row)
			})
		}
	}}
}

// ---------------------------------------------------------------------
// ProbeEmitSink
// ---------------------------------------------------------------------

// ProbeEmitSink is a multi-match terminal probe (find-candidates /
// compare / advance with no densification): every key match is emitted
// with its entry reference, typically into a per-worker TopK (Q18's
// customer ⋈ matches → top-100 output emission).
type ProbeEmitSink struct {
	ht      *hashtable.Table
	key     VecU64
	emit    func(ref hashtable.Ref, key uint64)
	keyBuf  []uint64
	hashes  []uint64
	cand    []hashtable.Ref
	candPos []int32
}

// NewProbeEmit creates the sink.
func NewProbeEmit(bufs *vector.Buffers, ht *hashtable.Table, key VecU64, emit func(ref hashtable.Ref, key uint64)) *ProbeEmitSink {
	return &ProbeEmitSink{
		ht:      ht,
		key:     key,
		emit:    emit,
		keyBuf:  bufs.Ref(),
		hashes:  bufs.Ref(),
		cand:    bufs.Entries(),
		candPos: bufs.Sel(),
	}
}

// Consume implements Sink. On a key-indexed table every entry on a
// key's slot chain is a match, so the chain is emitted without a hash
// or a key compare.
func (p *ProbeEmitSink) Consume(b *Batch) {
	keys := p.key(b, p.keyBuf)
	if ix := p.ht.KeyIndex(); ix.On() {
		for _, k := range keys[:b.K] {
			for ref := ix.Head(k); ref != 0; ref = p.ht.Next(ref) {
				p.emit(ref, k)
			}
		}
		return
	}
	tw.MapHashU64(keys[:b.K], p.hashes)
	nc := tw.FindCandidates(p.ht, p.hashes, b.K, p.cand, p.candPos)
	for nc > 0 {
		for i := 0; i < nc; i++ {
			ref := p.cand[i]
			pos := p.candPos[i]
			if p.ht.Hash(ref) == p.hashes[pos] && p.ht.Word(ref, 0) == keys[pos] {
				p.emit(ref, keys[pos])
			}
		}
		nc = tw.NextCandidates(p.ht, p.cand, p.candPos, nc)
	}
}

// Finish implements Sink.
func (p *ProbeEmitSink) Finish(bar *exec.Barrier, wid int) {
	bar.Wait(nil)
}
