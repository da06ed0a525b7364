package vector

import "testing"

func TestIota(t *testing.T) {
	s := Iota(nil, 5)
	for i, v := range s {
		if v != int32(i) {
			t.Fatalf("s[%d] = %d", i, v)
		}
	}
	// Reuse without reallocation when capacity suffices.
	s2 := Iota(s, 3)
	if len(s2) != 3 || &s2[0] != &s[0] {
		t.Error("Iota reallocated despite sufficient capacity")
	}
	// Growth.
	s3 := Iota(s, 10)
	if len(s3) != 10 || s3[9] != 9 {
		t.Error("Iota did not grow")
	}
}

func TestBuffersSizesAndFootprint(t *testing.T) {
	b := NewBuffers(100)
	if b.Size() != 100 {
		t.Fatalf("Size = %d", b.Size())
	}
	sel := b.Sel()
	i32 := b.I32()
	i64 := b.I64()
	num := b.Num()
	ref := b.Ref()
	by := b.Bytes()
	for _, l := range []int{len(sel), len(i32), len(i64), len(num), len(ref), len(by)} {
		if l != 100 {
			t.Fatalf("buffer length %d, want 100", l)
		}
	}
	want := int64(100*4 + 100*4 + 100*8 + 100*8 + 100*8 + 100)
	if got := b.Footprint(); got != want {
		t.Errorf("Footprint = %d, want %d", got, want)
	}
}

func TestBuffersDefaultSize(t *testing.T) {
	b := NewBuffers(0)
	if b.Size() != DefaultSize {
		t.Errorf("default size = %d, want %d", b.Size(), DefaultSize)
	}
}

// TestBuffersReuse pins what a reused arena hands out: its earlier
// vectors, in order, resliced to the new size and cleared, and new
// ones only past what it held or where the size outgrew them.
func TestBuffersReuse(t *testing.T) {
	b := NewBuffers(8)
	s1, s2, e := b.Sel(), b.Sel(), b.Entries()
	s1[0], s2[3], e[3] = 1, 2, 3
	b.reset(4)
	r1, r2, re, r3 := b.Sel(), b.Sel(), b.Entries(), b.Sel()
	if &r1[0] != &s1[0] || &r2[0] != &s2[0] || &re[0] != &e[0] {
		t.Fatal("a reset arena did not hand out its earlier vectors in order")
	}
	if len(r1) != 4 || len(r3) != 4 {
		t.Fatalf("vector lengths %d, %d after reset to 4", len(r1), len(r3))
	}
	if r1[0] != 0 || r2[3] != 0 || re[3] != 0 {
		t.Error("a reused vector was not cleared")
	}
	if got, want := b.Footprint(), int64(8*4+8*4+4*4+8*8); got != want {
		t.Errorf("Footprint = %d, want %d", got, want)
	}
	b.reset(16)
	if g := b.Sel(); len(g) != 16 || &g[0] == &s1[0] {
		t.Error("an arena reset to a larger size handed out a vector too short")
	}
	if b := Get(32); b.Size() != 32 {
		t.Errorf("Get(32).Size() = %d", b.Size())
	}
}
