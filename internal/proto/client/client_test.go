package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"testing"
	"time"

	"paradigms/internal/proto"
)

// streamBody renders a well-formed response: cols, the given rows
// frames, end.
func streamBody(t *testing.T, batches ...[][]int64) []byte {
	t.Helper()
	var total int64
	var elapsed float64
	frames := []proto.Frame{{Type: proto.FrameCols, Cols: []proto.Col{{Name: "a", Type: "int64"}}}}
	for _, b := range batches {
		frames = append(frames, proto.Frame{Type: proto.FrameRows, Rows: b})
		total += int64(len(b))
	}
	frames = append(frames, proto.Frame{Type: proto.FrameEnd, Engine: "typer", RowCount: &total, ElapsedMs: &elapsed})
	var body bytes.Buffer
	for _, f := range frames {
		raw, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		body.Write(raw)
		body.WriteByte('\n')
	}
	return body.Bytes()
}

// TestRowsNextAllocatesPerStreamNotPerRow: iterating a stream costs a
// fixed number of allocations — every rows frame is parsed into the
// arena the first one sized, so seven more 1024-row frames add none.
func TestRowsNextAllocatesPerStreamNotPerRow(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	batch := make([][]int64, 1024)
	for i := range batch {
		batch[i] = []int64{int64(i), -int64(i) * 1000, 1 << 40}
	}
	drain := func(body []byte, want int) func() {
		return func() {
			r := newRows(io.NopCloser(bytes.NewReader(body)))
			n := 0
			for r.Next() {
				if row := r.Row(); row[0] != int64(n%1024) || row[2] != 1<<40 {
					t.Fatalf("row %d = %v", n, row)
				}
				n++
			}
			if r.Err() != nil || n != want {
				t.Fatalf("drained %d rows (want %d), err %v", n, want, r.Err())
			}
		}
	}
	one := testing.AllocsPerRun(10, drain(streamBody(t, batch), 1024))
	eight := testing.AllocsPerRun(10, drain(streamBody(t, batch, batch, batch, batch, batch, batch, batch, batch), 8*1024))
	t.Logf("allocations: one frame %v, eight frames %v", one, eight)
	if one > 100 {
		t.Errorf("draining one 1024-row frame allocates %v times: that is per row, not per stream", one)
	}
	if eight > one {
		t.Errorf("draining eight frames allocates %v times, one frame %v: the row arena is not reused", eight, one)
	}
}

// TestRowsSmallResponseAllocatesLittle: a one-row response costs a few
// KB — the line buffer starts small and grows with the frames, instead
// of being sized for a large frame before the first byte is read.
func TestRowsSmallResponseAllocatesLittle(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	body := streamBody(t, [][]int64{{42}})
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		got, err := newRows(io.NopCloser(bytes.NewReader(body))).All()
		if err != nil || len(got) != 1 || got[0][0] != 42 {
			t.Fatalf("rows %v, err %v", got, err)
		}
	}
	runtime.ReadMemStats(&after)
	perResponse := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("one-row response allocates %d B", perResponse)
	if perResponse >= 16<<10 {
		t.Errorf("a one-row response allocates %d B, want under 16 KB", perResponse)
	}
}

// TestRowsDecodesFrameOver64KB: one rows frame larger than 64 KB still
// decodes — the line buffer grows past its start size.
func TestRowsDecodesFrameOver64KB(t *testing.T) {
	batch := make([][]int64, 8192)
	for i := range batch {
		batch[i] = []int64{int64(i) << 40}
	}
	body := streamBody(t, batch)
	if len(body) <= 64<<10 {
		t.Fatalf("body is %d B, want one frame over 64 KB", len(body))
	}
	got, err := newRows(io.NopCloser(bytes.NewReader(body))).All()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, batch) {
		t.Fatalf("decoded %d rows, want %d equal to the frame's", len(got), len(batch))
	}
}

// TestRowsAcceptsNonCanonicalFrames: a server that spells its rows
// frames differently from ours — indented, keys reordered — is still
// valid protocol; those frames decode through the strict decoder and
// interleave freely with canonical ones.
func TestRowsAcceptsNonCanonicalFrames(t *testing.T) {
	body := `{"frame":"cols","cols":[{"name":"a","type":"int64"},{"name":"b","type":"int64"}]}
{"frame":"rows","rows":[[1,2],[3,4]]}
{ "rows" : [ [5, 6] ,	[-0, 7] ], "frame" : "rows" }
{"frame":"rows","rows":[[8,9]]}
{"frame":"end","engine":"typer","row_count":5,"elapsed_ms":1.5}
`
	got, err := newRows(io.NopCloser(bytes.NewReader([]byte(body)))).All()
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]int64{{1, 2}, {3, 4}, {5, 6}, {0, 7}, {8, 9}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("rows %v, want %v", got, want)
	}
}

// TestRetryErrorFloorsBackoff: a 429 whose body lacks (or zeroes) the
// millisecond estimate — a legacy server with a sub-millisecond
// suggestion — must still decode to a positive RetryAfter, so retry
// loops sleeping on it cannot busy-wait.
func TestRetryErrorFloorsBackoff(t *testing.T) {
	bodies := map[string]string{
		"omitted": `{"error":"queue full","code":"overloaded","tenant":"t","queued":2}`,
		"zero":    `{"error":"queue full","code":"overloaded","tenant":"t","queued":2,"retry_after_ms":0}`,
		"normal":  `{"error":"queue full","code":"overloaded","tenant":"t","queued":2,"retry_after_ms":40}`,
	}
	wants := map[string]time.Duration{
		"omitted": time.Millisecond,
		"zero":    time.Millisecond,
		"normal":  40 * time.Millisecond,
	}
	for name, body := range bodies {
		t.Run(name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusTooManyRequests)
				w.Write([]byte(body + "\n"))
			}))
			defer ts.Close()
			c := New(ts.URL, "t")
			_, err := c.Query(context.Background(), "typer", "select 1")
			var re *RetryError
			if !errors.As(err, &re) {
				t.Fatalf("err = %v, want *RetryError", err)
			}
			if re.RetryAfter != wants[name] {
				t.Errorf("RetryAfter = %v, want %v", re.RetryAfter, wants[name])
			}
		})
	}
}
