package proto_test

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"paradigms/internal/proto"
	"paradigms/internal/server"
)

// flushExec scripts the sink calls of three result shapes: "one" is a
// one-row aggregate, "empty" a result without rows, and "k=<n>" a
// streamed projection of n batches.
type flushExec struct{ stubExec }

func (flushExec) Run(ctx context.Context, job server.Job) (server.Outcome, error) {
	out := server.Outcome{Used: "typer"}
	job.Sink.SetCols(stubCols)
	var k int
	switch {
	case job.Text == "one":
		k = 1
	case job.Text == "empty":
	default:
		if _, err := fmt.Sscanf(job.Text, "k=%d", &k); err != nil {
			return out, err
		}
	}
	for i := 0; i < k; i++ {
		if err := job.Sink.PushRows([][]int64{{int64(i), 100}}); err != nil {
			return out, err
		}
	}
	return out, nil
}

// flushRecorder is an http.ResponseWriter that records what each Flush
// sends: the bytes written since the previous flush.
type flushRecorder struct {
	hdr     http.Header
	body    bytes.Buffer
	sent    int
	flushes []string
}

func (r *flushRecorder) Header() http.Header         { return r.hdr }
func (r *flushRecorder) WriteHeader(int)             {}
func (r *flushRecorder) Write(p []byte) (int, error) { return r.body.Write(p) }
func (r *flushRecorder) Flush() {
	r.flushes = append(r.flushes, r.body.String()[r.sent:])
	r.sent = r.body.Len()
}

// TestFlushPolicy pins when the NDJSON sink flushes: every rows frame
// is flushed as it is produced, and nothing else is. The cols frame
// leaves with the first rows flush, and the end frame stays in the
// response buffer until the handler returns — so a one-row aggregate
// costs one flush and a result without rows none.
func TestFlushPolicy(t *testing.T) {
	svc := server.New(server.Config{WorkerBudget: 1, MaxConcurrent: 1, Executor: flushExec{}})
	defer svc.Close()
	h := proto.NewServer(svc, fixedNow).Handler()

	for _, tc := range []struct {
		sql     string
		flushes int
	}{
		{"empty", 0},
		{"one", 1},
		{"k=3", 3},
		{"k=8", 8},
	} {
		rec := &flushRecorder{hdr: http.Header{}}
		req := httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(fmt.Sprintf(`{"sql":%q}`, tc.sql)))
		h.ServeHTTP(rec, req)

		if len(rec.flushes) != tc.flushes {
			t.Errorf("%s: %d flushes, want %d", tc.sql, len(rec.flushes), tc.flushes)
		}
		for i, sent := range rec.flushes {
			types := frameTypes(t, sent)
			if n := len(types); n == 0 || types[n-1] != proto.FrameRows {
				t.Errorf("%s: flush %d sent frames %v, want them to end with a rows frame", tc.sql, i, types)
			}
		}
		all := frameTypes(t, rec.body.String())
		if len(all) == 0 || all[0] != proto.FrameCols || all[len(all)-1] != proto.FrameEnd {
			t.Errorf("%s: response frames %v, want cols first and end last", tc.sql, all)
		}
		if tail := frameTypes(t, rec.body.String()[rec.sent:]); len(tail) == 0 || tail[len(tail)-1] != proto.FrameEnd {
			t.Errorf("%s: the end frame was flushed by the sink", tc.sql)
		}
	}
}

// frameTypes decodes an NDJSON byte run and lists its frame types.
func frameTypes(t *testing.T, body string) []string {
	t.Helper()
	var types []string
	for _, line := range strings.SplitAfter(body, "\n") {
		if line == "" {
			continue
		}
		f, err := proto.DecodeFrame([]byte(line))
		if err != nil {
			t.Fatalf("undecodable frame %q: %v", line, err)
		}
		types = append(types, f.Type)
	}
	return types
}
