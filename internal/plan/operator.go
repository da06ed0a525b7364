package plan

import (
	"paradigms/internal/hashtable"
	"paradigms/internal/tw"
	"paradigms/internal/vector"
)

// Batch is the unit of flow between operators: a window of base-column
// rows [Base, Base+N) plus the selection vector of live positions within
// it (§2.1). Sel == nil means the batch is dense (all N positions live);
// otherwise Sel[:K] lists the live window-relative positions — ascending
// out of a FilterChain, but in candidate-chain match order after a probe.
// Derived vectors (probe payloads, projected values) are not carried in
// the batch: they live in per-worker buffers captured by the operator
// closures, aligned with Sel (length K).
type Batch struct {
	Base int
	N    int
	Sel  vector.Sel
	K    int
}

// window slices a base column to the batch's window.
func window[T any](col []T, b *Batch) []T { return col[b.Base : b.Base+b.N] }

// Operator produces batches: Next fills b with the next non-empty vector
// and reports false at exhaustion. Operators never emit K == 0 batches —
// empty vectors are consumed internally, exactly like the monolithic
// pipelines' `continue`.
type Operator interface {
	Next(b *Batch) bool
}

// ---------------------------------------------------------------------
// Scan
// ---------------------------------------------------------------------

// Scan serves morsels claimed from a shared dispatcher as dense batches
// of at most the configured vector size. Created via Exec.NewScan.
type Scan struct {
	scan *tw.Scan
}

// Next implements Operator.
func (s *Scan) Next(b *Batch) bool {
	n := s.scan.Next()
	if n == 0 {
		return false
	}
	b.Base, b.N, b.Sel, b.K = s.scan.Base, n, nil, n
	return true
}

// SetVec changes the scan's tuples-per-vector size for subsequent
// batches (micro-adaptive vector sizing). The new size must not exceed
// the vector size the pipeline's buffers were allocated with.
func (s *Scan) SetVec(v int) { s.scan.SetVec(v) }

// Scanned returns the number of tuples the scan has served so far —
// scan progress, which counts windows a downstream filter or probe
// dropped entirely.
func (s *Scan) Scanned() int { return s.scan.Scanned }

// ---------------------------------------------------------------------
// FilterChain
// ---------------------------------------------------------------------

// Pred is one conjunct of a FilterChain: Dense evaluates over the whole
// window, Sparse over an input selection vector. Both write qualifying
// positions to res and return the count. A Pred with nil Sparse (string
// predicates, which have no Sel-consuming primitive) must be the chain's
// first conjunct.
type Pred struct {
	Dense  func(base, n int, res []int32) int
	Sparse func(base, n int, sel, res []int32) int
}

// FilterChain is a selection cascade: the first predicate produces a
// selection vector, later ones consume and narrow it (§5.1), ping-pinging
// between two buffers.
type FilterChain struct {
	child Operator
	preds []Pred
	s1    []int32
	s2    []int32
}

// NewFilterChain builds a selection cascade over child.
func NewFilterChain(bufs *vector.Buffers, child Operator, preds ...Pred) *FilterChain {
	if len(preds) == 0 {
		panic("plan: FilterChain needs at least one predicate")
	}
	return &FilterChain{child: child, preds: preds, s1: bufs.Sel(), s2: bufs.Sel()}
}

// Next implements Operator.
func (f *FilterChain) Next(b *Batch) bool {
	for {
		if !f.child.Next(b) {
			return false
		}
		cur, k := b.Sel, b.K
		out, alt := f.s1, f.s2
		for _, p := range f.preds {
			if cur == nil {
				k = p.Dense(b.Base, b.N, out)
			} else {
				k = p.Sparse(b.Base, b.N, cur[:k], out)
			}
			cur = out
			out, alt = alt, out
			if k == 0 {
				break
			}
		}
		if k == 0 {
			continue
		}
		b.Sel, b.K = cur, k
		return true
	}
}

// ---------------------------------------------------------------------
// Project
// ---------------------------------------------------------------------

// Project computes derived vectors for each batch (into buffers the
// closure captures) and passes the batch through unchanged. fn only sees
// non-empty batches.
type Project struct {
	child Operator
	fn    func(b *Batch)
}

// NewProject wraps child with a projection step.
func NewProject(child Operator, fn func(b *Batch)) *Project {
	return &Project{child: child, fn: fn}
}

// Next implements Operator.
func (p *Project) Next(b *Batch) bool {
	if !p.child.Next(b) {
		return false
	}
	p.fn(b)
	return true
}

// ---------------------------------------------------------------------
// HashProbe
// ---------------------------------------------------------------------

// GatherU64 copies payload word Word of each matching entry into Dst.
type GatherU64 struct {
	Word int
	Dst  []uint64
}

// GatherI64 is GatherU64 for int64-typed payload words.
type GatherI64 struct {
	Word int
	Dst  []int64
}

// Carry compacts a derived vector of the upstream alignment through the
// match positions so it stays aligned with the narrowed batch.
type Carry func(inner []int32)

// CarryU64 compacts v through the match positions. Probe matches arrive
// in candidate-chain rounds, not in ascending position order, so the
// gather goes through a scratch buffer rather than in place.
func CarryU64(bufs *vector.Buffers, v []uint64) Carry {
	scratch := bufs.Ref()
	return func(inner []int32) {
		tw.FetchU64(v, inner, scratch)
		copy(v[:len(inner)], scratch)
	}
}

// HashFn maps packed 64-bit keys to their hash vector. A nil HashFn
// means the engine default (tw.MapHashU64 over the engine-wide hash
// function); the hybrid engine overrides it so vectorized stages
// build and probe join tables with the compiled backend's hash.
type HashFn func(keys, res []uint64)

// ProbeSpec declares a hash-probe operator: the shared table, the probe
// key, payload gathers, and carried vectors. Build keys must be unique
// (N:1 joins) so a batch's matches fit the vector-sized buffers;
// multi-match probes terminate pipelines via ProbeEmitSink instead.
type ProbeSpec struct {
	HT        *hashtable.Table
	Key       VecU64
	Hash      HashFn // nil = engine default
	GatherU64 []GatherU64
	GatherI64 []GatherI64
	Carry     []Carry
	// Staged marks a key already tested against the build's key set by
	// a membership stage upstream: the probe skips the key filter.
	Staged bool
}

// HashProbe is the vectorized join probe of Figure 2b: a tw.Prober
// filters, hashes and probes the keys — all in tw primitives — then the
// batch is narrowed to the matches and the requested payloads gathered.
type HashProbe struct {
	child  Operator
	spec   ProbeSpec
	keyBuf []uint64
	probe  tw.Prober
	mRefs  []hashtable.Ref
	mPos   []int32
	outSel []int32
}

// NewHashProbe builds a probe operator over child.
func NewHashProbe(bufs *vector.Buffers, child Operator, spec ProbeSpec) *HashProbe {
	hash := spec.Hash
	if hash == nil {
		hash = tw.MapHashU64
	}
	keyBuf, outSel := bufs.Ref(), bufs.Sel()
	return &HashProbe{
		child:  child,
		spec:   spec,
		keyBuf: keyBuf,
		// The prober compacts the keys its filter passes into keyBuf (in
		// place when Key returned it) and their positions into outSel,
		// which is free until the narrowed selection is written.
		probe: tw.Prober{Hash: hash, Keys: keyBuf, Hashes: bufs.Ref(),
			Cand: bufs.Entries(), CandPos: bufs.Sel(), Pos: outSel, Staged: spec.Staged},
		mRefs:  bufs.Entries(),
		mPos:   bufs.Sel(),
		outSel: outSel,
	}
}

// Next implements Operator.
func (p *HashProbe) Next(b *Batch) bool {
	for {
		if !p.child.Next(b) {
			return false
		}
		keys := p.spec.Key(b, p.keyBuf)
		nm := p.probe.Probe(p.spec.HT, keys, b.K, p.mRefs, p.mPos)
		if nm == 0 {
			continue
		}
		for _, g := range p.spec.GatherU64 {
			tw.GatherWord(p.spec.HT, p.mRefs, g.Word, nm, g.Dst)
		}
		for _, g := range p.spec.GatherI64 {
			tw.GatherWordI64(p.spec.HT, p.mRefs, g.Word, nm, g.Dst)
		}
		for _, c := range p.spec.Carry {
			c(p.mPos[:nm])
		}
		if b.Sel == nil {
			copy(p.outSel, p.mPos[:nm])
		} else {
			tw.ComposePos(b.Sel, p.mPos[:nm], p.outSel)
		}
		b.Sel, b.K = p.outSel, nm
		return true
	}
}

// ---------------------------------------------------------------------
// Match
// ---------------------------------------------------------------------

// Match narrows a batch by a predicate over *derived* vectors (join
// residuals like Q5's c_nation = s_nation): pred emits matching
// K-relative positions, carried vectors are compacted through them, and
// the batch selection is composed.
type Match struct {
	child  Operator
	pred   func(b *Batch, res []int32) int
	carry  []Carry
	posBuf []int32
	outSel []int32
}

// NewMatch builds a residual-match operator over child.
func NewMatch(bufs *vector.Buffers, child Operator, pred func(b *Batch, res []int32) int, carry ...Carry) *Match {
	return &Match{child: child, pred: pred, carry: carry, posBuf: bufs.Sel(), outSel: bufs.Sel()}
}

// Next implements Operator.
func (m *Match) Next(b *Batch) bool {
	for {
		if !m.child.Next(b) {
			return false
		}
		k := m.pred(b, m.posBuf)
		if k == 0 {
			continue
		}
		for _, c := range m.carry {
			c(m.posBuf[:k])
		}
		if b.Sel == nil {
			copy(m.outSel, m.posBuf[:k])
		} else {
			tw.ComposePos(b.Sel, m.posBuf[:k], m.outSel)
		}
		b.Sel, b.K = m.outSel, k
		return true
	}
}
