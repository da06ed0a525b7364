package storage

import (
	"testing"
	"testing/quick"

	"paradigms/internal/types"
)

func TestRelationBasics(t *testing.T) {
	r := NewRelation("t")
	r.AddInt32("a", []int32{1, 2, 3})
	r.AddNumeric("b", []types.Numeric{100, 200, 300})
	if r.Rows() != 3 {
		t.Fatalf("Rows = %d, want 3", r.Rows())
	}
	if got := r.Int32("a")[1]; got != 2 {
		t.Errorf("a[1] = %d", got)
	}
	if got := r.Numeric("b")[2]; got != 300 {
		t.Errorf("b[2] = %d", got)
	}
	if !r.Has("a") || r.Has("zz") {
		t.Error("Has misbehaves")
	}
	if len(r.Columns()) != 2 {
		t.Error("Columns length")
	}
}

func TestRelationPanicsOnMismatch(t *testing.T) {
	r := NewRelation("t")
	r.AddInt32("a", []int32{1, 2, 3})
	assertPanics(t, "row mismatch", func() { r.AddInt32("b", []int32{1}) })
	assertPanics(t, "duplicate column", func() { r.AddInt32("a", []int32{4, 5, 6}) })
	assertPanics(t, "missing column", func() { r.Column("nope") })
	assertPanics(t, "wrong type", func() { r.Int64("a") })
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

func TestStringHeap(t *testing.T) {
	h := NewStringHeap(3, 8)
	h.AppendString("BUILDING")
	h.AppendString("")
	h.Append([]byte("green olive"))
	if h.Len() != 3 {
		t.Fatalf("Len = %d", h.Len())
	}
	if string(h.Get(0)) != "BUILDING" || string(h.Get(1)) != "" || string(h.Get(2)) != "green olive" {
		t.Errorf("Get round trip failed: %q %q %q", h.Get(0), h.Get(1), h.Get(2))
	}
}

func TestStringHeapRoundTripProperty(t *testing.T) {
	f := func(values [][]byte) bool {
		h := NewStringHeap(len(values), 4)
		for _, v := range values {
			h.Append(v)
		}
		if h.Len() != len(values) {
			return false
		}
		for i, v := range values {
			got := h.Get(i)
			if string(got) != string(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestColTypeWidthAndString(t *testing.T) {
	for ct, w := range map[ColType]int{Int32: 4, Int64: 8, Numeric: 8, Date: 4, Byte: 1, String: 4} {
		if ct.Width() != w {
			t.Errorf("%v.Width() = %d, want %d", ct, ct.Width(), w)
		}
		if ct.String() == "" {
			t.Errorf("%d has empty String()", ct)
		}
	}
}

func TestByteSize(t *testing.T) {
	r := NewRelation("t")
	r.AddInt64("a", make([]int64, 10))
	r.AddInt32("b", make([]int32, 10))
	h := NewStringHeap(10, 2)
	for i := 0; i < 10; i++ {
		h.AppendString("xy")
	}
	r.AddString("s", h)
	want := int64(10*8 + 10*4 + 20 + 11*4)
	if got := r.ByteSize(); got != want {
		t.Errorf("ByteSize = %d, want %d", got, want)
	}
}

func TestDatabase(t *testing.T) {
	d := NewDatabase("tpch", 1)
	r1 := NewRelation("lineitem")
	r1.AddInt32("x", make([]int32, 5))
	r2 := NewRelation("orders")
	r2.AddInt32("x", make([]int32, 3))
	d.Add(r1)
	d.Add(r2)
	if got := d.TotalTuples("lineitem", "orders"); got != 8 {
		t.Errorf("TotalTuples = %d", got)
	}
	if d.Rel("orders").Rows() != 3 {
		t.Error("Rel lookup")
	}
	names := d.Relations()
	if len(names) != 2 || names[0] != "lineitem" || names[1] != "orders" {
		t.Errorf("Relations = %v", names)
	}
	assertPanics(t, "duplicate relation", func() { d.Add(NewRelation("orders")) })
	assertPanics(t, "missing relation", func() { d.Rel("part") })
}

// TestSliceViews: a view aliases its source's arrays, reads the same
// values, is sized by its own rows, and cannot write into its
// neighbour by appending.
func TestSliceViews(t *testing.T) {
	r := NewRelation("t")
	r.AddInt32("a", []int32{1, 2, 3, 4, 5})
	r.AddInt64("b", []int64{10, 20, 30, 40, 50})
	r.AddNumeric("c", []types.Numeric{100, 200, 300, 400, 500})
	r.AddDate("d", []types.Date{7, 8, 9, 10, 11})
	r.AddByte("e", []byte("vwxyz"))
	h := NewStringHeap(5, 3)
	for _, s := range []string{"a", "bb", "", "dddd", "ee"} {
		h.AppendString(s)
	}
	r.AddString("f", h)

	left, mid, right := r.Slice(0, 1), r.Slice(1, 4), r.Slice(4, 5)
	if mid.Name != "t" || mid.Rows() != 3 || len(mid.Columns()) != 6 {
		t.Fatalf("mid view: name %q, %d rows, %d columns", mid.Name, mid.Rows(), len(mid.Columns()))
	}
	if &mid.Int32("a")[0] != &r.Int32("a")[1] || &mid.Date("d")[2] != &r.Date("d")[3] || &mid.String("f").Offsets[0] != &h.Offsets[1] {
		t.Fatal("mid view does not alias its source")
	}
	for i, want := range []string{"bb", "", "dddd"} {
		if got := string(mid.String("f").Get(i)); got != want {
			t.Errorf("mid f[%d] = %q, want %q", i, got, want)
		}
	}
	if got := mid.Byte("e"); string(got) != "wxy" {
		t.Errorf("mid e = %q", got)
	}
	if n := mid.String("f").ByteLen(); n != 6 {
		t.Errorf("mid f ByteLen = %d, want 6", n)
	}
	if sum := left.ByteSize() + mid.ByteSize() + right.ByteSize(); sum != r.ByteSize()+2*4 {
		// Each view carries one offset entry more than its share.
		t.Errorf("views' ByteSize sums to %d, source is %d", sum, r.ByteSize())
	}
	if g := mid.Gather([]int{2, 0}); string(g.String("f").Get(0)) != "dddd" || g.String("f").ByteLen() != 6 {
		t.Errorf("gather of a view: %q, %d bytes", g.String("f").Get(0), g.String("f").ByteLen())
	}

	// Appending to a view reallocates; the source and the next view
	// keep their values.
	a := append(mid.Int32("a"), -1)
	mh := *mid.String("f")
	mh.AppendString("zzzzzz")
	if r.Int32("a")[4] != 5 || right.Int32("a")[0] != 5 || a[3] != -1 {
		t.Error("appending to an int32 view wrote into the source")
	}
	if string(right.String("f").Get(0)) != "ee" || string(h.Get(4)) != "ee" || string(mh.Get(3)) != "zzzzzz" {
		t.Error("appending to a string view wrote into the source")
	}

	empty := r.Slice(5, 5)
	if empty.Rows() != 0 || empty.String("f").Len() != 0 || empty.String("f").ByteLen() != 0 {
		t.Errorf("empty view: %d rows", empty.Rows())
	}
	assertPanics(t, "slice past the end", func() { r.Slice(2, 6) })
	assertPanics(t, "inverted slice", func() { r.Slice(3, 2) })
}
