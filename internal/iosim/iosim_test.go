package iosim

import (
	"bytes"
	"testing"
	"time"

	"paradigms/internal/storage"
	"paradigms/internal/tpch"
)

func TestWriteVerifyRoundTrip(t *testing.T) {
	db := tpch.Generate(0.01, 0)
	dir := t.TempDir()
	if err := WriteDatabase(db, dir); err != nil {
		t.Fatal(err)
	}
	for _, check := range [][2]string{
		{"lineitem", "l_orderkey"},
		{"lineitem", "l_extendedprice"},
		{"lineitem", "l_shipdate"},
		{"lineitem", "l_returnflag"},
		{"orders", "o_totalprice"},
	} {
		if err := VerifyRoundTrip(dir, db, check[0], check[1]); err != nil {
			t.Error(err)
		}
	}
}

// TestWriteViewColumns: a database of views (storage.Relation.Slice,
// as sharding makes them) writes only its own rows, so the streamed
// bytes match ColumnBytes and string columns round-trip.
func TestWriteViewColumns(t *testing.T) {
	base := tpch.Generate(0.01, 0)
	db := storage.NewDatabase("tpch", 0.01)
	for _, name := range []string{"customer", "orders"} {
		r := base.Rel(name)
		db.Add(r.Slice(r.Rows()/3, r.Rows()/2))
	}
	dir := t.TempDir()
	if err := WriteDatabase(db, dir); err != nil {
		t.Fatal(err)
	}
	relations := []string{"customer", "orders"}
	n, _, err := StreamColumns(dir, db, relations, 10e9)
	if err != nil {
		t.Fatal(err)
	}
	if want := ColumnBytes(db, relations); n != want {
		t.Errorf("streamed %d bytes, want %d", n, want)
	}
	for _, col := range []string{"c_name", "c_mktsegment"} {
		if err := VerifyRoundTrip(dir, db, "customer", col); err != nil {
			t.Error(err)
		}
	}
}

func TestThrottleLimitsBandwidth(t *testing.T) {
	const size = 4 << 20
	const bw = 64e6 // 64 MB/s → 4MB takes ≥62ms
	src := bytes.NewReader(make([]byte, size))
	tr := NewThrottle(src, bw)
	start := time.Now()
	buf := make([]byte, 1<<16)
	var total int
	for {
		n, err := tr.Read(buf)
		total += n
		if err != nil {
			break
		}
	}
	elapsed := time.Since(start)
	if total != size {
		t.Fatalf("read %d bytes", total)
	}
	want := time.Duration(float64(size) / bw * float64(time.Second))
	if elapsed < want*8/10 {
		t.Errorf("throttle too fast: %v for %d bytes (want ≥ %v)", elapsed, size, want)
	}
}

func TestStreamColumnsReadsEverything(t *testing.T) {
	db := tpch.Generate(0.005, 0)
	dir := t.TempDir()
	if err := WriteDatabase(db, dir); err != nil {
		t.Fatal(err)
	}
	relations := []string{"lineitem", "orders"}
	n, _, err := StreamColumns(dir, db, relations, 10e9)
	if err != nil {
		t.Fatal(err)
	}
	want := ColumnBytes(db, relations)
	if n != want {
		t.Errorf("streamed %d bytes, want %d", n, want)
	}
	// Duplicate relation in the scan list is read once.
	n2, _, err := StreamColumns(dir, db, []string{"orders", "orders"}, 10e9)
	if err != nil {
		t.Fatal(err)
	}
	if n2 != ColumnBytes(db, []string{"orders"}) {
		t.Errorf("duplicate-relation stream read %d", n2)
	}
}

func TestTable5TimeComposition(t *testing.T) {
	// CPU-bound: total ≈ in-memory time.
	got := Table5Time(500*time.Millisecond, 1<<20, 1e9)
	if got < 500*time.Millisecond || got > 510*time.Millisecond {
		t.Errorf("cpu-bound total = %v", got)
	}
	// IO-bound: total ≈ bytes/bandwidth.
	got = Table5Time(10*time.Millisecond, 1.4e9, PaperSSDBandwidth)
	if got < time.Second || got > 1100*time.Millisecond {
		t.Errorf("io-bound total = %v", got)
	}
}
