package proto

import (
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"reflect"
	"testing"
)

// DecodeFrameStrict exposes the reference decoder to the external test
// package's differential fuzzer.
var DecodeFrameStrict = decodeFrameStrict

// jsonRowsFrame is the wire form the rows-frame codec is pinned to.
func jsonRowsFrame(t testing.TB, rows [][]int64) []byte {
	t.Helper()
	raw, err := json.Marshal(Frame{Type: FrameRows, Rows: rows})
	if err != nil {
		t.Fatal(err)
	}
	return append(raw, '\n')
}

// randomRows draws n rows of the given width, heavy on the values
// where a hand-written integer codec goes wrong.
func randomRows(r *rand.Rand, n, width int) [][]int64 {
	edges := []int64{0, 1, -1, math.MinInt64, math.MaxInt64, math.MinInt64 + 1, 9, 10, -10, 1e18, -1e18}
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = make([]int64, width)
		for j := range rows[i] {
			switch r.Intn(3) {
			case 0:
				rows[i][j] = edges[r.Intn(len(edges))]
			case 1:
				rows[i][j] = r.Int63n(2000) - 1000
			default:
				rows[i][j] = int64(r.Uint64())
			}
		}
	}
	return rows
}

// TestRowsFrameEncoderMatchesJSON: the append encoder's output is
// json.Marshal's, byte for byte, and the fast-path parser reads it back
// to the same rows the strict decoder does.
func TestRowsFrameEncoderMatchesJSON(t *testing.T) {
	batches := [][][]int64{
		nil,
		{},
		{{}},
		{nil},
		{{1}, nil, {}},
		{{0}},
		{{math.MinInt64, math.MaxInt64, 0, 1, -1}},
		{{1, 2}, {3}},
	}
	r := rand.New(rand.NewSource(19))
	for _, n := range []int{1, 2, 7, 1024} {
		for width := 0; width <= 8; width++ {
			batches = append(batches, randomRows(r, n, width))
		}
	}
	var buf []byte
	var dec Decoder
	for _, rows := range batches {
		want := jsonRowsFrame(t, rows)
		buf = appendRowsFrame(buf[:0], rows)
		if string(buf) != string(want) {
			t.Fatalf("rows %v:\n got %q\nwant %q", rows, buf, want)
		}
		line := buf[:len(buf)-1]
		strict, strictErr := decodeFrameStrict(line)
		got, err := dec.Decode(line)
		if (err == nil) != (strictErr == nil) {
			t.Fatalf("%q: Decode err %v, strict err %v", line, err, strictErr)
		}
		if err == nil && !reflect.DeepEqual(got, strict) {
			t.Fatalf("%q: Decode %+v, strict %+v", line, got, strict)
		}
	}
}

// TestRowsFrameFastPathTaken: the canonical form must actually parse on
// the fast path (a parser that always fell back would pass every
// equivalence test), and each near-miss must be left to the strict
// decoder.
func TestRowsFrameFastPathTaken(t *testing.T) {
	var d Decoder
	for _, line := range []string{
		`{"frame":"rows","rows":[[1,17350],[2,409001]]}`,
		`{"frame":"rows","rows":[[0]]}`,
		`{"frame":"rows","rows":[[-9223372036854775808,9223372036854775807]]}`,
		`{"frame":"rows","rows":[[1,2],[3]]}`,
	} {
		if !d.parseRows([]byte(line)) {
			t.Errorf("canonical frame left the fast path: %s", line)
		}
	}
	for _, line := range []string{
		`{"frame":"rows","rows":[[-0]]}`,
		`{"frame":"rows","rows":[[01]]}`,
		`{"frame":"rows","rows":[[1.0]]}`,
		`{"frame":"rows","rows":[[1e3]]}`,
		`{"frame":"rows","rows":[[9223372036854775808]]}`,
		`{"frame":"rows","rows":[[-9223372036854775809]]}`,
		`{"frame":"rows","rows":[[12345678901234567890]]}`,
		`{"frame":"rows","rows":[[1,]]}`,
		`{"frame":"rows","rows":[[]]}`,
		`{"frame":"rows","rows":[null]}`,
		`{"frame":"rows","rows":[]}`,
		`{"frame":"rows","rows":[[1]],"rows":[[2]]}`,
		`{"frame":"rows","rows":[[1]]} {"frame":"rows","rows":[[2]]}`,
		`{"frame":"rows","rows":[[1]]}` + "\n",
		`{"frame":"rows", "rows":[[1]]}`,
		`{"rows":[[1]],"frame":"rows"}`,
		`{"frame":"rows","rows":[[1]`,
		`{"frame":"rows","rows":[[1]]`,
		`{"frame":"rows","rows":[[`,
		`{"frame":"rows","rows":[[-`,
		`{"frame":"rows","rows":[`,
		`{"frame":"end","engine":"typer","row_count":3,"elapsed_ms":0.25}`,
	} {
		if d.parseRows([]byte(line)) {
			t.Errorf("non-canonical frame took the fast path: %s", line)
		}
	}
}

// discardWriter is an http.ResponseWriter (and Flusher) that drops the
// response.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(int)             {}
func (w *discardWriter) Flush()                      {}

// TestPushRowsAllocatesNothing: after its first batch the sink encodes
// into a buffer it already owns — a steady-state PushRows costs no
// allocation, whatever the batch holds.
func TestPushRowsAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	rows := randomRows(rand.New(rand.NewSource(1)), 1024, 3)
	sink := &ndjsonSink{w: &discardWriter{h: http.Header{}}}
	defer sink.release()
	push := func() {
		if err := sink.PushRows(rows); err != nil {
			t.Fatal(err)
		}
	}
	push()
	if n := testing.AllocsPerRun(20, push); n != 0 {
		t.Fatalf("steady-state PushRows of 1024×3 rows allocates %v times, want 0", n)
	}
}

// rowsFrameShape is the batch the stream_wide benchmark reports: about
// a thousand three-column rows per frame.
func rowsFrameShape() [][]int64 {
	r := rand.New(rand.NewSource(7))
	rows := make([][]int64, 1005)
	for i := range rows {
		rows[i] = []int64{r.Int63n(3_000_000), r.Int63n(50) + 1, r.Int63n(10_000_000)}
	}
	return rows
}

func BenchmarkRowsFrameEncode(b *testing.B) {
	rows := rowsFrameShape()
	b.Run("append", func(b *testing.B) {
		var buf []byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = appendRowsFrame(buf[:0], rows)
		}
		b.SetBytes(int64(len(buf)))
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.SetBytes(int64(len(jsonRowsFrame(b, rows))))
		}
	})
}

func BenchmarkRowsFrameDecode(b *testing.B) {
	line := appendRowsFrame(nil, rowsFrameShape())
	line = line[:len(line)-1]
	b.Run("fast-path", func(b *testing.B) {
		var d Decoder
		b.SetBytes(int64(len(line)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := d.Decode(line); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("strict", func(b *testing.B) {
		b.SetBytes(int64(len(line)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := decodeFrameStrict(line); err != nil {
				b.Fatal(err)
			}
		}
	})
}
