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

// preAggCapacity bounds each worker's pre-aggregation hash table so it
// stays cache resident; overflowing groups spill as single-tuple
// partials (matches internal/typer).
const preAggCapacity = 1 << 14

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

// run drives the pipeline's fused tuple-at-a-time loop. The loop body
// is what a data-centric code generator would emit per pipeline; per
// DESIGN.md S1 the "generated code" for the dominant shapes is
// committed here as specialized loop variants — a pure filter scan and
// a filter scan + single probe, each with its bounds and probe state
// hoisted into function-local variables — because one polymorphic loop
// carries enough live state that Go spills it to the stack on every
// row. Wider shapes (multi-probe pipelines like Q5's) take the generic
// loop.
func (p *pipe) run(sink func(i int, fr []int64)) {
	if p.rejectAll {
		return
	}
	frame := make([]int64, p.slots)
	// checked filters beyond the unrolled range bounds and inline
	// string equalities.
	tail := len(p.filt.preds) > 0 || len(p.filt.b32) > 2 || len(p.filt.b64) > 2
	switch {
	case len(p.steps) == 0 && !tail:
		p.runScan(frame, sink)
	case len(p.steps) == 1 && !tail && len(p.steps[0].residuals) == 0 && len(p.filt.strs) == 0:
		if len(p.filt.b32) <= 1 && len(p.filt.b64) == 0 && p.steps[0].key32 != nil {
			p.runScanProbe32(frame, sink)
		} else {
			p.runScanProbe(frame, sink)
		}
	default:
		p.runGeneric(frame, sink)
	}
}

// probeBlock is the staging granularity of runScanProbe32's filter: the
// bound check runs branch-free over a cache-resident block (the SWAR
// kernel of internal/simd), and only qualifying positions reach the
// probe loop — a micro-vectorized stage inside an otherwise fused
// pipeline, per the paper's observation that data-parallel filter work
// is where SIMD pays even in a compiled engine (§5).
const probeBlock = 1024

// runScanProbe32: at most one 32-bit range bound and one 32-bit-keyed
// residual-free probe — the exact shape of every pipeline of Q3 and
// Q18, kept register-resident.
func (p *pipe) runScanProbe32(frame []int64, sink func(i int, fr []int64)) {
	st := p.steps[0]
	k32 := st.key32
	ht := st.build.ht
	gath := st.gathers
	if len(p.filt.b32) == 0 {
		// No bound: plain probe loop, no staging.
		for {
			m, ok := p.disp.Next()
			if !ok {
				return
			}
		rows:
			for i := m.Begin; i < m.End; i++ {
				k := uint64(uint32(k32[i]))
				ref := ht.Lookup(hashtable.Mix64(k))
				for {
					if ref == 0 {
						continue rows
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
	}
	c32, lo, hi := p.filt.b32[0].col, p.filt.b32[0].lo, p.filt.b32[0].hi
	if lo > hi || lo > math.MaxInt32 || hi < math.MinInt32 {
		return // empty range, or bound excludes every 32-bit value
	}
	lo32, hi32 := int32(max64(lo, math.MinInt32)), int32(min64(hi, math.MaxInt32))
	sel := make([]int32, probeBlock)
	for {
		m, ok := p.disp.Next()
		if !ok {
			return
		}
		for base := m.Begin; base < m.End; base += probeBlock {
			end := base + probeBlock
			if end > m.End {
				end = m.End
			}
			nk := simd.SelectRange(c32[base:end], lo32, hi32, sel)
		matches:
			for j := 0; j < nk; j++ {
				i := base + int(sel[j])
				k := uint64(uint32(k32[i]))
				ref := ht.Lookup(hashtable.Mix64(k))
				for {
					if ref == 0 {
						continue matches
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
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// bounds returns the unrolled range-bound locals of the filter cascade
// (nil col = absent slot). Callers checked that at most two bounds per
// width exist.
func (f *filt) bounds() (c32a, c32b []int32, lo32a, hi32a, lo32b, hi32b int64, c64a, c64b []int64, lo64a, hi64a, lo64b, hi64b int64) {
	if len(f.b32) > 0 {
		c32a, lo32a, hi32a = f.b32[0].col, f.b32[0].lo, f.b32[0].hi
	}
	if len(f.b32) > 1 {
		c32b, lo32b, hi32b = f.b32[1].col, f.b32[1].lo, f.b32[1].hi
	}
	if len(f.b64) > 0 {
		c64a, lo64a, hi64a = f.b64[0].col, f.b64[0].lo, f.b64[0].hi
	}
	if len(f.b64) > 1 {
		c64b, lo64b, hi64b = f.b64[1].col, f.b64[1].lo, f.b64[1].hi
	}
	return
}

// runScan: filter-only pipeline — range bounds and inline string
// equalities, no probes. The exact (one 32-bit, two 64-bit) shape of
// Q6's cascade gets its own branch-free-slot loop.
func (p *pipe) runScan(frame []int64, sink func(i int, fr []int64)) {
	f := &p.filt
	if len(f.b32) == 1 && len(f.b64) == 2 && len(f.strs) == 0 {
		p.runScan122(frame, sink)
		return
	}
	c32a, c32b, lo32a, hi32a, lo32b, hi32b, c64a, c64b, lo64a, hi64a, lo64b, hi64b := f.bounds()
	strs := f.strs
	for {
		m, ok := p.disp.Next()
		if !ok {
			return
		}
	rows:
		for i := m.Begin; i < m.End; i++ {
			if c32a != nil {
				if v := int64(c32a[i]); v < lo32a || v > hi32a {
					continue rows
				}
			}
			if c32b != nil {
				if v := int64(c32b[i]); v < lo32b || v > hi32b {
					continue rows
				}
			}
			if c64a != nil {
				if v := c64a[i]; v < lo64a || v > hi64a {
					continue rows
				}
			}
			if c64b != nil {
				if v := c64b[i]; v < lo64b || v > hi64b {
					continue rows
				}
			}
			for _, s := range strs {
				if bytes.Equal(s.heap.Get(i), s.val) != s.eq {
					continue rows
				}
			}
			sink(i, frame)
		}
	}
}

// runScan122: one 32-bit and two 64-bit bounds (Q6's and Q1.1's
// cascade), all slots present — no per-slot nil checks.
func (p *pipe) runScan122(frame []int64, sink func(i int, fr []int64)) {
	f := &p.filt
	c32, lo32, hi32 := f.b32[0].col, f.b32[0].lo, f.b32[0].hi
	c64a, lo64a, hi64a := f.b64[0].col, f.b64[0].lo, f.b64[0].hi
	c64b, lo64b, hi64b := f.b64[1].col, f.b64[1].lo, f.b64[1].hi
	for {
		m, ok := p.disp.Next()
		if !ok {
			return
		}
		for i := m.Begin; i < m.End; i++ {
			if v := int64(c32[i]); v < lo32 || v > hi32 {
				continue
			}
			if v := c64a[i]; v < lo64a || v > hi64a {
				continue
			}
			if v := c64b[i]; v < lo64b || v > hi64b {
				continue
			}
			sink(i, frame)
		}
	}
}

// runScanProbe: filter scan plus one residual-free probe (the shape of
// every pipeline of Q3/Q18/Q1.1 and most of Q5's). Probe walks compare
// the stored key directly — chains are per-bucket, so a key match is
// definitive and one word cheaper than the hash prefilter on these
// 1-word keys.
func (p *pipe) runScanProbe(frame []int64, sink func(i int, fr []int64)) {
	c32a, c32b, lo32a, hi32a, lo32b, hi32b, c64a, c64b, lo64a, hi64a, lo64b, hi64b := p.filt.bounds()
	st := p.steps[0]
	k32, k64 := st.key32, st.key64
	ht := st.build.ht
	gath := st.gathers
	for {
		m, ok := p.disp.Next()
		if !ok {
			return
		}
	rows:
		for i := m.Begin; i < m.End; i++ {
			if c32a != nil {
				if v := int64(c32a[i]); v < lo32a || v > hi32a {
					continue rows
				}
			}
			if c32b != nil {
				if v := int64(c32b[i]); v < lo32b || v > hi32b {
					continue rows
				}
			}
			if c64a != nil {
				if v := c64a[i]; v < lo64a || v > hi64a {
					continue rows
				}
			}
			if c64b != nil {
				if v := c64b[i]; v < lo64b || v > hi64b {
					continue rows
				}
			}
			var k uint64
			if k32 != nil {
				k = uint64(uint32(k32[i]))
			} else {
				k = uint64(k64[i])
			}
			ref := ht.Lookup(hashtable.Mix64(k))
			for {
				if ref == 0 {
					continue rows
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
}

// runGeneric handles every remaining shape: wide filter cascades,
// generic predicates, multi-probe pipelines, and probe residuals.
func (p *pipe) runGeneric(frame []int64, sink func(i int, fr []int64)) {
	f := &p.filt
	steps := p.steps
	for {
		m, ok := p.disp.Next()
		if !ok {
			return
		}
	rows:
		for i := m.Begin; i < m.End; i++ {
			for _, b := range f.b32 {
				if v := int64(b.col[i]); v < b.lo || v > b.hi {
					continue rows
				}
			}
			for _, b := range f.b64 {
				if v := b.col[i]; v < b.lo || v > b.hi {
					continue rows
				}
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
			for _, st := range steps {
				var k uint64
				if st.key32 != nil {
					k = uint64(uint32(st.key32[i]))
				} else {
					k = uint64(st.key64[i])
				}
				ht := st.build.ht
				ref := ht.Lookup(hashtable.Mix64(k))
				for {
					if ref == 0 {
						continue rows
					}
					if row := ht.Row(ref); row[0] == k {
						for _, g := range st.gathers {
							frame[g.slot] = int64(row[g.word])
						}
						break
					}
					ref = ht.Next(ref)
				}
				for _, r := range st.residuals {
					if r.a(i, frame) != r.b(i, frame) {
						continue rows
					}
				}
			}
			sink(i, frame)
		}
	}
}

// runBuild drains the pipeline into its shard of the shared hash table
// (key in word 0, payloads after), ready for the post-barrier insert.
func (p *pipe) runBuild(wid int) {
	ht := p.ht
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
	})
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
// loop feeding a cache-resident pre-aggregation table, overflow and
// final flush spilling partition-partial rows [hash, key, aggs...].
// A non-nil nOut (telemetry-instrumented executions) counts the rows
// reaching the sink in a worker-local counter; nil leaves the fused
// loop untouched.
func (p *pipe) runGrouped(wid int, specs []groupSpec, keyGet u64Fn, spill *hashtable.Spill, nOut *int64) {
	local := hashtable.New(1+len(specs), 1)
	local.Prepare(preAggCapacity)
	lsh := local.Shard(0)

	body := func(i int, fr []int64) {
		k := keyGet(i, fr)
		h := hashtable.Mix64(k)
		for ref := local.Lookup(h); ref != 0; ref = local.Next(ref) {
			row := local.Row(ref)
			if row[0] != k {
				continue
			}
			for j := range specs {
				s := &specs[j]
				switch s.op {
				case logical.OpSum:
					row[1+j] += uint64(s.val(i, fr))
				case logical.OpCount:
					row[1+j]++
				case logical.OpMin:
					if v := s.val(i, fr); v < int64(row[1+j]) {
						row[1+j] = uint64(v)
					}
				case logical.OpMax:
					if v := s.val(i, fr); v > int64(row[1+j]) {
						row[1+j] = uint64(v)
					}
				}
			}
			return
		}
		if local.Rows() < preAggCapacity {
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
	if nOut != nil {
		inner := body
		body = func(i int, fr []int64) {
			*nOut++
			inner(i, fr)
		}
	}
	p.run(body)

	local.ForEach(func(ref hashtable.Ref) {
		h := local.Hash(ref)
		row := spill.AppendRow(wid, hashtable.PartitionOf(h, tw.AggPartitions))
		row[0] = h
		row[1] = local.Word(ref, 0)
		for j := range specs {
			row[2+j] = local.Word(ref, 1+j)
		}
	})
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
// logical.MergeGlobal so the empty-input semantics stay identical.
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
	})
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
	})
}
