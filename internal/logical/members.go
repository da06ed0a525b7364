package logical

import (
	"unsafe"

	"paradigms/internal/catalog"
	"paradigms/internal/hashtable"
	"paradigms/internal/simd"
	"paradigms/internal/sql"
)

// Membership staging, shared by both lowerings: every probe step whose
// build published an exact key set — a key index or a key filter —
// narrows each block's selection to the rows whose probe key is a
// build key, with one internal/simd membership kernel, after the range
// filters and before any probe work. Typer runs the stages in its
// block loop ((*compiled.pipe).run), Tectorwise appends them to the
// scan's FilterChain ahead of the first HashProbe, so on either engine
// a rejected row is never widened, hashed, gathered or carried
// (DESIGN.md §9).

// Member is one probe step's staged membership test.
type Member struct {
	// Step is the staged step's index in Pipeline.Steps.
	Step int
	// Index is the build's key index, or the zero KeyIndex when its
	// key set is a key filter: the probe of a key-indexed step reads
	// the match's chain head from it.
	Index hashtable.KeyIndex
	set   simd.KeySet
	// The probe key's machine view (exactly one non-nil).
	k32 []int32
	k64 []int64
}

// Members decides the pipeline's membership stages for the current
// execution, in probe order: one per step whose build has a key index
// or a key filter. It reads the layouts the builds published, so it
// runs after their build barrier.
func (p *Pipeline) Members() []Member {
	var ms []Member
	for s, st := range p.Steps {
		ht := st.Build.ht
		m := Member{Step: s, Index: ht.KeyIndex()}
		switch kf := ht.KeyFilter(); {
		case m.Index.On():
			m.set = simd.SlotSet(m.Index.Slots())
		case kf.Bits() > 0:
			m.set = simd.BitmapSet(kf.Words())
		default:
			continue
		}
		var err error
		if m.k32, m.k64, err = BaseViews(st.ProbeKey); err != nil {
			panic(err) // unreachable: both lowerings reject such a key
		}
		ms = append(ms, m)
	}
	return ms
}

// Dense writes the positions j < n of the rows base+j whose probe key
// is a build key to out and returns their count.
func (m *Member) Dense(base, n int, out []int32) int {
	if m.k32 != nil {
		return simd.SelectMembers(m.k32[base:base+n], m.set, out)
	}
	return simd.SelectMembers64(m.k64[base:base+n], m.set, out)
}

// Sparse narrows sel (ascending positions relative to base, below n)
// to the rows whose probe key is a build key; out may alias sel.
func (m *Member) Sparse(base, n int, sel, out []int32) int {
	if m.k32 != nil {
		return simd.SelectMembersSparse(m.k32[base:base+n], m.set, sel, out)
	}
	return simd.SelectMembersSparse64(m.k64[base:base+n], m.set, sel, out)
}

// view32 and view64 reinterpret a typed column as its machine layout so
// filter bounds and key accessors are free of per-row type dispatch.
// (~int32 and ~int64 guarantee identical memory layout.)
func view32[T ~int32](s []T) []int32 {
	if len(s) == 0 {
		return []int32{}
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&s[0])), len(s))
}

func view64[T ~int64](s []T) []int64 {
	if len(s) == 0 {
		return []int64{}
	}
	return unsafe.Slice((*int64)(unsafe.Pointer(&s[0])), len(s))
}

// BaseViews returns the 32-bit or 64-bit machine view of a base column
// (exactly one of the two results is non-nil on success).
func BaseViews(c *catalog.Column) ([]int32, []int64, error) {
	rel := c.Table.Rel
	switch c.Type.Kind {
	case catalog.Int32:
		return view32(rel.Int32(c.Name)), nil, nil
	case catalog.Date:
		return view32(rel.Date(c.Name)), nil, nil
	case catalog.Numeric:
		return nil, view64(rel.Numeric(c.Name)), nil
	case catalog.Int64:
		return nil, view64(rel.Int64(c.Name)), nil
	}
	return nil, nil, sql.Errf(sql.Pos{Line: 1, Col: 1},
		"%s column %q cannot be a key or value", c.Type.Kind, c.Name)
}
