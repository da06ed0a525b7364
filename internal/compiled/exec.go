package compiled

import (
	"bytes"
	"context"
	"math"

	"paradigms/internal/hashtable"
	"paradigms/internal/logical"
	"paradigms/internal/simd"
	"paradigms/internal/tw"
)

// The compiled backend hashes keys with hashtable.Mix64, the same
// low-latency finalizer the hand-written Typer pipelines use (see
// typer.Hash) — called directly so the compiler can inline it into the
// fused loops.

// Execute runs the plan as the typer engine: every pipeline lowered to
// a fused loop and run morsel-parallel by the shared driver
// (logical.Drive), with nothing vectorized lowered or allocated. A
// canceled context drains the workers within one morsel and returns a
// partial result the caller discards — the same contract as every
// registered engine query. The plan must be fully bound
// (logical.(*Plan).BindArgs — shared with the vectorized backend, so
// the two engines bind identically).
func Execute(ctx context.Context, pl *logical.Plan, nWorkers int) (*logical.Result, error) {
	out, err := drive(ctx, pl, nWorkers, logical.Mode{})
	return out.Result, err
}

// ExecuteStream is Execute flushing result batches to sink as they are
// produced, with the same contract as logical.(*Plan).ExecuteStream.
func ExecuteStream(ctx context.Context, pl *logical.Plan, nWorkers, chunk int, sink logical.RowSink) error {
	_, err := drive(ctx, pl, nWorkers, logical.Mode{Sink: sink, Chunk: chunk})
	return err
}

// ExecutePartial is Execute minus finalization: the shard-local
// partial state for logical.(*Plan).MergePartials — the compiled
// backend's scatter side of the exchange.
func ExecutePartial(ctx context.Context, pl *logical.Plan, nWorkers int) (*logical.Partial, error) {
	out, err := drive(ctx, pl, nWorkers, logical.Mode{Partial: true})
	return out.Partial, err
}

// drive is the typer row of the engine policy table.
func drive(ctx context.Context, pl *logical.Plan, nWorkers int, mode logical.Mode) (logical.Output, error) {
	cp, err := LowerProgram(pl)
	if err != nil {
		return logical.Output{}, err
	}
	return logical.Drive(ctx, pl, nWorkers, logical.Policy{Fused: cp}, mode)
}

// run drives the pipeline's fused loop, the one morsel loop of the
// compiled backend. Its body is what a data-centric code generator would
// emit per pipeline (DESIGN.md S1), staged per block of probeBlock rows:
// the range bounds select the block's qualifying positions branch-free
// (filt.selectBlock), then each probe whose build published an exact
// key filter or a key index narrows that selection to the block's key
// members (logical.(*Pipeline).Members, the membership stages both
// engines run), and the loop shape chosen at lowering (shapeLoop) takes
// the block's survivors. A pipeline with per-row stages runs them tuple
// at a time (survivors, probeOne) before the sink; a row-free one hands
// the block to fold when its terminal folds whole blocks, and otherwise
// calls sink per survivor. A spine with neither a range bound nor a
// staged probe walks each morsel directly.
func (p *pipe) run(sink func(i int, fr []int64), fold *blockFold) {
	if p.Filters.RejectAll {
		return
	}
	frame := make([]int64, p.slots)
	f := &p.filt
	loop := p.loop
	probes, members := p.probes()
	bounds := len(f.b32)+len(f.b64) > 0
	var buf [probeBlock]int32 // stays on the worker's stack
	var sel []int32
	if bounds || len(members) > 0 {
		sel = buf[:]
	}
	for {
		m, ok := p.Disp().Next()
		if !ok {
			return
		}
		for base := m.Begin; base < m.End; {
			end, pos := m.End, []int32(nil)
			if sel != nil {
				end = min(base+probeBlock, m.End)
				if bounds {
					pos = sel[:f.selectBlock(base, end, sel)]
				}
				for s := range members {
					if pos == nil {
						pos = sel[:members[s].Dense(base, end-base, sel)]
					} else {
						pos = sel[:members[s].Sparse(base, end-base, pos, sel)]
					}
				}
			}
			switch {
			case loop == loopProbeOne:
				p.probeOne(base, end, pos, frame, probes[0].ix, sink)
			case loop == loopRows:
				p.survivors(base, end, pos, frame, probes, sink)
			case fold != nil:
				fold.block(base, end, pos)
			case pos == nil:
				for i := base; i < end; i++ {
					sink(i, frame)
				}
			default:
				for _, s := range pos {
					sink(base+int(s), frame)
				}
			}
			base = end
		}
	}
}

// probeBlock is the staging granularity of the fused loop's range
// filter and probe stages: the bound checks and key-membership tests
// run branch-free over a cache-resident block (the range kernels of
// internal/simd), and only qualifying positions reach the row loop — a
// micro-vectorized stage inside an otherwise fused pipeline, per the
// paper's observation that data-parallel filter work is where SIMD pays
// even in a compiled engine (§5).
const probeBlock = 1024

// selectBlock writes the positions (relative to lo) of the rows in
// [lo, hi) that pass every range bound to sel and returns their count:
// the first bound selects densely, each further one narrows sel in
// place.
func (f *filt) selectBlock(lo, hi int, sel []int32) int {
	b32, b64 := f.b32, f.b64
	var n int
	if len(b32) > 0 {
		n = simd.SelectRange(b32[0].col[lo:hi], b32[0].lo, b32[0].hi, sel)
		b32 = b32[1:]
	} else {
		n = simd.SelectRange64(b64[0].col[lo:hi], b64[0].lo, b64[0].hi, sel)
		b64 = b64[1:]
	}
	for _, b := range b32 {
		n = simd.SelectRangeSparse(b.col[lo:hi], b.lo, b.hi, sel[:n], sel)
	}
	for _, b := range b64 {
		n = simd.SelectRangeSparse64(b.col[lo:hi], b.lo, b.hi, sel[:n], sel)
	}
	return n
}

// probe is one probe step's build state for one run: the table and,
// when the build is key-indexed, its key index (from the step's
// membership stage).
type probe struct {
	*step
	ht *hashtable.Table
	ix hashtable.KeyIndex
}

// probes hoists every probe step's build state for one run, with the
// pipeline's membership stages. It runs after the build barrier, the
// first point where each build's layout is known.
func (p *pipe) probes() ([]probe, []logical.Member) {
	members := p.Members()
	probes := make([]probe, len(p.steps))
	for s, st := range p.steps {
		probes[s] = probe{step: st, ht: st.build.HT()}
	}
	for _, m := range members {
		probes[m.Step].ix = m.Index
	}
	return probes, members
}

// survivors runs the row loop over one block's qualifying rows: base+pos[j]
// for every j, or every row of [base, end) when pos is nil. The
// membership stages already dropped the rows with no build match, so a
// probe here only finds its build row: the key index's slot, or the
// hashed chain walk, which is also the whole membership test of an
// unstaged step.
func (p *pipe) survivors(base, end int, pos []int32, frame []int64, probes []probe, sink func(i int, fr []int64)) {
	f := &p.filt
	n := end - base
	if pos != nil {
		n = len(pos)
	}
rows:
	for j := 0; j < n; j++ {
		i := base + j
		if pos != nil {
			i = base + int(pos[j])
		}
		for _, s := range f.strs {
			if bytes.Equal(s.heap.Get(i), s.val) != s.eq {
				continue rows
			}
		}
		for _, pr := range f.preds {
			if !pr(i, frame) {
				continue rows
			}
		}
		for s := range probes {
			pr := &probes[s]
			var k uint64
			if pr.key32 != nil {
				k = uint64(uint32(pr.key32[i]))
			} else {
				k = uint64(pr.key64[i])
			}
			ht := pr.ht
			var ref hashtable.Ref
			if pr.ix.On() {
				ref = pr.ix.Head(k)
			} else {
				ref = ht.Lookup(hashtable.Mix64(k))
				for ref != 0 && ht.Row(ref)[0] != k {
					ref = ht.Next(ref)
				}
			}
			if ref == 0 {
				continue rows
			}
			row := ht.Row(ref)
			for _, g := range pr.gathers {
				frame[g.slot] = int64(row[g.word])
			}
			for _, r := range pr.residuals {
				if r.a(i, frame) != r.b(i, frame) {
					continue rows
				}
			}
		}
		sink(i, frame)
	}
}

// probeOne is survivors for the dominant join shape — one residual-free
// probe on a 32-bit key and no row checks, every pipeline of Q3 and Q18
// — with the probe state (table, or key index) hoisted into locals so
// it stays register-resident: a second key column, or a per-row test
// for which of the loops below applies, spills it. The membership
// stage already dropped the keys a key filter rejects. A key-indexed
// build (probeIndexed) needs no hash and no key compare. Hashed probe
// walks compare the stored key directly: chains are per-bucket, so a
// key match is definitive and one word cheaper than the hash prefilter
// on these 1-word keys.
func (p *pipe) probeOne(base, end int, pos []int32, frame []int64, ix hashtable.KeyIndex, sink func(i int, fr []int64)) {
	if ix.On() {
		p.probeIndexed(ix, base, end, pos, frame, sink)
		return
	}
	st := p.steps[0]
	k32 := st.key32
	ht := st.build.HT()
	gath := st.gathers
	if pos == nil {
	dense:
		for i := base; i < end; i++ {
			k := uint64(uint32(k32[i]))
			ref := ht.Lookup(hashtable.Mix64(k))
			for {
				if ref == 0 {
					continue dense
				}
				if row := ht.Row(ref); row[0] == k {
					for _, g := range gath {
						frame[g.slot] = int64(row[g.word])
					}
					break
				}
				ref = ht.Next(ref)
			}
			sink(i, frame)
		}
		return
	}
selected:
	for _, s := range pos {
		i := base + int(s)
		k := uint64(uint32(k32[i]))
		ref := ht.Lookup(hashtable.Mix64(k))
		for {
			if ref == 0 {
				continue selected
			}
			if row := ht.Row(ref); row[0] == k {
				for _, g := range gath {
					frame[g.slot] = int64(row[g.word])
				}
				break
			}
			ref = ht.Next(ref)
		}
		sink(i, frame)
	}
}

// probeIndexed is probeOne against a key-indexed build: the key's slot
// heads its chain, and the head is the match.
func (p *pipe) probeIndexed(ix hashtable.KeyIndex, base, end int, pos []int32, frame []int64, sink func(i int, fr []int64)) {
	st := p.steps[0]
	k32 := st.key32
	ht := st.build.HT()
	gath := st.gathers
	if pos == nil {
		for i := base; i < end; i++ {
			ref := ix.Head(uint64(uint32(k32[i])))
			if ref == 0 {
				continue
			}
			row := ht.Row(ref)
			for _, g := range gath {
				frame[g.slot] = int64(row[g.word])
			}
			sink(i, frame)
		}
		return
	}
	for _, s := range pos {
		i := base + int(s)
		ref := ix.Head(uint64(uint32(k32[i])))
		if ref == 0 {
			continue
		}
		row := ht.Row(ref)
		for _, g := range gath {
			frame[g.slot] = int64(row[g.word])
		}
		sink(i, frame)
	}
}

// runBuild drains the pipeline into its shard of the shared hash table
// (key in word 0, payloads after), ready for the post-barrier insert.
func (p *pipe) runBuild(wid int) {
	ht := p.HT()
	sh := ht.Shard(wid)
	keyGet, payGet := p.keyGet, p.payGet
	p.run(func(i int, fr []int64) {
		k := keyGet(i, fr)
		ref, _ := sh.Alloc(ht, hashtable.Mix64(k))
		row := ht.Row(ref)
		row[0] = k
		for j, get := range payGet {
			row[1+j] = get(i, fr)
		}
	}, nil)
}

// groupSpec is the compiled form of one aggregate slot.
type groupSpec struct {
	op  logical.AggOp
	val scalarFn // nil for COUNT
}

// compileAggs compiles the aggregate slots' input expressions.
func (p *pipe) compileAggs(agg *logical.Aggregate) ([]groupSpec, error) {
	specs := make([]groupSpec, len(agg.Aggs))
	for j, s := range agg.Aggs {
		specs[j].op = s.Op
		if s.Op != logical.OpCount {
			v, err := p.scalar(s.Arg)
			if err != nil {
				return nil, err
			}
			specs[j].val = v
		}
	}
	return specs, nil
}

// groupKeyGet compiles the grouping-key expression: one key is its word
// representation, two pack lo|hi<<32 — the same encoding the vectorized
// lowering and the hand-written plans use, decoded by DecodeGroupKey.
func (p *pipe) groupKeyGet(agg *logical.Aggregate) (u64Fn, error) {
	k0, err := p.u64Get(p.resolve(agg.Keys[0]))
	if err != nil {
		return nil, err
	}
	if len(agg.Keys) == 1 {
		return k0, nil
	}
	k1, err := p.u64Get(p.resolve(agg.Keys[1]))
	if err != nil {
		return nil, err
	}
	return func(i int, fr []int64) uint64 {
		return uint64(uint32(k0(i, fr))) | k1(i, fr)<<32
	}, nil
}

// runGrouped is phase one of the keyed aggregation: fused scan/probe
// loop feeding a cache-resident pre-aggregation table (grown to the
// groups it meets, up to hashtable.PreAggCapacity), overflow and
// final flush spilling partition-partial rows [hash, key, aggs...] —
// or, when the plan chose an array over the key's dense domain (dom),
// a hashtable.AggArray flushed as the same rows at the end.
// A non-nil nOut (telemetry-instrumented executions) counts the rows
// reaching the sink in a worker-local counter; nil leaves the fused
// loop untouched.
func (p *pipe) runGrouped(wid int, specs []groupSpec, keyGet u64Fn, dom logical.KeyDomain, spill *hashtable.Spill, nOut *int64) {
	var body func(i int, fr []int64)
	var flush func()
	if dom.Array() {
		arr := hashtable.NewAggArray(dom.Min, dom.Span, len(specs))
		words := arr.Words()
		body = func(i int, fr []int64) {
			off, first := arr.Slot(keyGet(i, fr))
			row := words[off : off+len(specs)]
			if first {
				for j := range specs {
					row[j] = initWord(&specs[j], i, fr)
				}
				return
			}
			updateWords(row, specs, i, fr)
		}
		flush = func() { arr.Flush(spill, wid) }
	} else {
		local := hashtable.New(1+len(specs), 1)
		local.Prepare(0)
		lsh := local.Shard(0)
		body = func(i int, fr []int64) {
			k := keyGet(i, fr)
			h := hashtable.Mix64(k)
			for ref := local.Lookup(h); ref != 0; ref = local.Next(ref) {
				if row := local.Row(ref); row[0] == k {
					updateWords(row[1:], specs, i, fr)
					return
				}
			}
			if local.AggRoom() {
				ref, _ := lsh.Alloc(local, h)
				row := local.Row(ref)
				row[0] = k
				for j := range specs {
					row[1+j] = initWord(&specs[j], i, fr)
				}
				local.Insert(ref, h)
			} else {
				row := spill.AppendRow(wid, hashtable.PartitionOf(h, tw.AggPartitions))
				row[0] = h
				row[1] = k
				for j := range specs {
					row[2+j] = initWord(&specs[j], i, fr)
				}
			}
		}
		flush = func() {
			local.ForEach(func(ref hashtable.Ref) {
				h := local.Hash(ref)
				row := spill.AppendRow(wid, hashtable.PartitionOf(h, tw.AggPartitions))
				row[0] = h
				copy(row[1:], local.Row(ref))
			})
		}
	}
	if nOut != nil {
		inner := body
		body = func(i int, fr []int64) {
			*nOut++
			inner(i, fr)
		}
	}
	p.run(body, nil)
	flush()
}

// updateWords folds one row into a group's aggregate words (one per
// slot); first-value slots keep the value their group's first row set.
func updateWords(row []uint64, specs []groupSpec, i int, fr []int64) {
	for j := range specs {
		s := &specs[j]
		switch s.op {
		case logical.OpSum:
			row[j] += uint64(s.val(i, fr))
		case logical.OpCount:
			row[j]++
		case logical.OpMin:
			if v := s.val(i, fr); v < int64(row[j]) {
				row[j] = uint64(v)
			}
		case logical.OpMax:
			if v := s.val(i, fr); v > int64(row[j]) {
				row[j] = uint64(v)
			}
		}
	}
}

// initWord is a new group's first partial value for one slot.
func initWord(s *groupSpec, i int, fr []int64) uint64 {
	if s.op == logical.OpCount {
		return 1
	}
	return uint64(s.val(i, fr))
}

// runGlobal reduces the final pipeline to one worker's accumulators —
// the fused form of the generic global-aggregate sink, merged by
// logical.MergeGlobal so the empty-input semantics stay identical. A
// pipeline with a block fold folds its blocks into the same
// accumulators (blockFold).
func (p *pipe) runGlobal(wid int, specs []groupSpec) logical.GlobalPartial {
	acc := make([]int64, len(specs))
	for j := range specs {
		switch specs[j].op {
		case logical.OpMin:
			acc[j] = math.MaxInt64
		case logical.OpMax:
			acc[j] = math.MinInt64
		}
	}
	var n int64
	var fold *blockFold
	if p.fold != nil {
		fold = &blockFold{aggs: p.fold, acc: acc, n: &n}
	}
	p.run(func(i int, fr []int64) {
		n++
		for j := range specs {
			s := &specs[j]
			switch s.op {
			case logical.OpSum:
				acc[j] += s.val(i, fr)
			case logical.OpCount:
				acc[j]++
			case logical.OpMin:
				if v := s.val(i, fr); v < acc[j] {
					acc[j] = v
				}
			case logical.OpMax:
				if v := s.val(i, fr); v > acc[j] {
					acc[j] = v
				}
			}
		}
	}, fold)
	return logical.GlobalPartial{Acc: acc, N: n}
}

// runProject writes every projection row of one worker into the row
// next hands out.
func (p *pipe) runProject(items []scalarFn, next func() []int64) {
	p.run(func(i int, fr []int64) {
		row := next()
		for j, v := range items {
			row[j] = v(i, fr)
		}
	}, nil)
}
