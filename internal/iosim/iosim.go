// Package iosim implements the out-of-memory experiment substrate
// (Table 5, DESIGN.md S4): a binary columnar on-disk format plus a
// token-bucket bandwidth throttle that emulates the paper's 1.4 GB/s SSD
// RAID against DRAM-resident execution.
package iosim

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"paradigms/internal/storage"
	"paradigms/internal/types"
)

// PaperSSDBandwidth is the read bandwidth of the paper's RAID-5 of three
// SATA SSDs.
const PaperSSDBandwidth = 1.4e9 // bytes/second

// WriteDatabase writes every relation of db into dir as one binary file
// per column.
func WriteDatabase(db *storage.Database, dir string) error {
	for _, name := range db.Relations() {
		rel := db.Rel(name)
		for _, col := range rel.Columns() {
			if err := writeColumn(dir, name, col); err != nil {
				return err
			}
		}
	}
	return nil
}

func columnPath(dir, rel, col string) string {
	return filepath.Join(dir, rel+"."+col+".bin")
}

func writeColumn(dir, rel string, col *storage.Column) error {
	f, err := os.Create(columnPath(dir, rel, col.Name))
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var werr error
	put := func(v uint64, width int) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		if _, err := w.Write(buf[:width]); err != nil && werr == nil {
			werr = err
		}
	}
	switch col.Type {
	case storage.Int32:
		for _, v := range col.I32 {
			put(uint64(uint32(v)), 4)
		}
	case storage.Int64:
		for _, v := range col.I64 {
			put(uint64(v), 8)
		}
	case storage.Numeric:
		for _, v := range col.Num {
			put(uint64(v), 8)
		}
	case storage.Date:
		for _, v := range col.Dat {
			put(uint64(uint32(v)), 4)
		}
	case storage.Byte:
		if _, err := w.Write(col.B); err != nil {
			werr = err
		}
	case storage.String:
		// Rebased to the first value, so a view (storage.Relation.Slice)
		// writes its own values only, and the file is ByteSize long.
		h := col.Str
		for _, off := range h.Offsets {
			put(uint64(off-h.Offsets[0]), 4)
		}
		if _, err := w.Write(h.Bytes[h.Offsets[0]:]); err != nil {
			werr = err
		}
	}
	if err := w.Flush(); err != nil && werr == nil {
		werr = err
	}
	if err := f.Close(); err != nil && werr == nil {
		werr = err
	}
	return werr
}

// Throttle wraps a reader, limiting throughput to bytesPerSec with a
// token bucket refilled every millisecond.
type Throttle struct {
	r           io.Reader
	bytesPerSec float64
	start       time.Time
	consumed    float64
}

// NewThrottle creates a throttled reader.
func NewThrottle(r io.Reader, bytesPerSec float64) *Throttle {
	return &Throttle{r: r, bytesPerSec: bytesPerSec, start: time.Now()}
}

// Read implements io.Reader, sleeping as needed to respect the budget.
func (t *Throttle) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	t.consumed += float64(n)
	allowedAt := t.start.Add(time.Duration(t.consumed / t.bytesPerSec * float64(time.Second)))
	if d := time.Until(allowedAt); d > 0 {
		time.Sleep(d)
	}
	return n, err
}

// ColumnBytes returns the on-disk size of the columns a query scans.
func ColumnBytes(db *storage.Database, relations []string) int64 {
	var total int64
	seen := map[string]bool{}
	for _, r := range relations {
		if seen[r] {
			continue
		}
		seen[r] = true
		total += db.Rel(r).ByteSize()
	}
	return total
}

// StreamColumns reads all column files of the given relations from dir at
// the throttled bandwidth, returning bytes read and elapsed time. This is
// the I/O phase of the out-of-memory experiment; execution overlaps with
// it (Table5Time combines the two).
func StreamColumns(dir string, db *storage.Database, relations []string, bytesPerSec float64) (int64, time.Duration, error) {
	start := time.Now()
	var total int64
	buf := make([]byte, 1<<20)
	seen := map[string]bool{}
	for _, relName := range relations {
		if seen[relName] {
			continue
		}
		seen[relName] = true
		rel := db.Rel(relName)
		for _, col := range rel.Columns() {
			f, err := os.Open(columnPath(dir, relName, col.Name))
			if err != nil {
				return total, time.Since(start), err
			}
			tr := NewThrottle(bufio.NewReaderSize(f, 1<<20), bytesPerSec)
			for {
				n, err := tr.Read(buf)
				total += int64(n)
				if err == io.EOF {
					break
				}
				if err != nil {
					f.Close()
					return total, time.Since(start), err
				}
			}
			f.Close()
		}
	}
	return total, time.Since(start), nil
}

// Table5Time models the out-of-memory runtime of a query: table data
// streams from storage at ssdBW while execution proceeds at in-memory
// speed; with a pipelined scan the total is the maximum of the two, plus
// a first-morsel fill latency.
func Table5Time(inMemory time.Duration, scanBytes int64, ssdBW float64) time.Duration {
	io := time.Duration(float64(scanBytes) / ssdBW * float64(time.Second))
	fill := time.Duration(float64(exec1MB) / ssdBW * float64(time.Second))
	if io > inMemory {
		return io + fill
	}
	return inMemory + fill
}

const exec1MB = 1 << 20

// VerifyRoundTrip re-reads a written column and compares it against the
// in-memory data (used by tests and cmd/dbgen -verify).
func VerifyRoundTrip(dir string, db *storage.Database, rel, col string) error {
	r := db.Rel(rel)
	c := r.Column(col)
	data, err := os.ReadFile(columnPath(dir, rel, col))
	if err != nil {
		return err
	}
	switch c.Type {
	case storage.Int32:
		for i, v := range c.I32 {
			if got := int32(binary.LittleEndian.Uint32(data[i*4:])); got != v {
				return fmt.Errorf("iosim: %s.%s[%d] = %d, want %d", rel, col, i, got, v)
			}
		}
	case storage.Numeric:
		for i, v := range c.Num {
			if got := types.Numeric(binary.LittleEndian.Uint64(data[i*8:])); got != v {
				return fmt.Errorf("iosim: %s.%s[%d] = %d, want %d", rel, col, i, got, v)
			}
		}
	case storage.Date:
		for i, v := range c.Dat {
			if got := types.Date(binary.LittleEndian.Uint32(data[i*4:])); got != v {
				return fmt.Errorf("iosim: %s.%s[%d] differs", rel, col, i)
			}
		}
	case storage.Byte:
		for i, v := range c.B {
			if data[i] != v {
				return fmt.Errorf("iosim: %s.%s[%d] differs", rel, col, i)
			}
		}
	case storage.String:
		h := c.Str
		if len(data) < 4*len(h.Offsets) {
			return fmt.Errorf("iosim: %s.%s is %d bytes, shorter than its offsets", rel, col, len(data))
		}
		heap := data[4*len(h.Offsets):]
		for i := 0; i < h.Len(); i++ {
			lo, hi := binary.LittleEndian.Uint32(data[i*4:]), binary.LittleEndian.Uint32(data[i*4+4:])
			if lo > hi || int(hi) > len(heap) || !bytes.Equal(heap[lo:hi], h.Get(i)) {
				return fmt.Errorf("iosim: %s.%s[%d] differs", rel, col, i)
			}
		}
	}
	return nil
}
