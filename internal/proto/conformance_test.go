package proto_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"paradigms/internal/catalog"
	"paradigms/internal/logical"
	"paradigms/internal/proto"
	"paradigms/internal/server"
	"paradigms/internal/simd"
)

var update = flag.Bool("update", false, "rewrite the golden wire fixtures")

// stubCols is the fixed schema every stub stream advertises.
var stubCols = []logical.OutCol{
	{Name: "l_orderkey", Type: catalog.Type{Kind: catalog.Int64}},
	{Name: "revenue", Type: catalog.Type{Kind: catalog.Numeric, Scale: 2}},
}

// stubExec is a server.Executor that streams fully scripted frames
// keyed by the query text — the conformance fixtures pin the protocol
// layer, not the engines (the engines' wire output is covered end to
// end by the streaming equivalence suite).
type stubExec struct{}

func (stubExec) Prepare(text string) (server.Stmt, error) {
	return nil, fmt.Errorf("stub: prepared path not under test")
}

func (stubExec) Counters() server.Counters { return server.Counters{} }

func (stubExec) Run(ctx context.Context, job server.Job) (server.Outcome, error) {
	out := server.Outcome{Used: "typer"}
	switch job.Text {
	case "ok":
		job.Sink.SetCols(stubCols)
		job.Sink.PushRows([][]int64{{1, 17350}, {2, 409001}})
		job.Sink.PushRows([][]int64{{5, 2150}})
		return out, nil
	case "midfail":
		job.Sink.SetCols(stubCols)
		job.Sink.PushRows([][]int64{{1, 17350}})
		return out, fmt.Errorf("stub: spill corrupted mid-merge")
	case "earlyfail":
		return out, fmt.Errorf("stub: unknown relation \"lineitm\"")
	case "block":
		<-ctx.Done()
		return out, ctx.Err()
	}
	return out, fmt.Errorf("stub: unscripted query %q", job.Text)
}

func newStubService() *server.Service {
	return server.New(server.Config{WorkerBudget: 1, MaxConcurrent: 1, Executor: stubExec{}})
}

// fixedNow freezes the server clock so end-frame timings are
// byte-reproducible.
func fixedNow() time.Time { return time.Unix(1700000000, 0) }

// checkGolden compares got against testdata/<name>.golden, rewriting the
// fixture under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("wire bytes diverge from %s:\ngot:  %q\nwant: %q", path, got, want)
	}
}

// postQuery runs one /v1/query round trip and returns status and body.
func postQuery(t *testing.T, ts *httptest.Server, body string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw, resp.Header
}

// TestConformanceGoldens pins the wire format byte for byte: streamed
// batch framing, the mid-stream error frame, the clean pre-stream error,
// and the decodability of every line by the strict frame decoder.
func TestConformanceGoldens(t *testing.T) {
	svc := newStubService()
	defer svc.Close()
	ts := httptest.NewServer(proto.NewServer(svc, fixedNow).Handler())
	defer ts.Close()

	t.Run("stream", func(t *testing.T) {
		status, raw, hdr := postQuery(t, ts, `{"tenant":"t1","engine":"typer","sql":"ok"}`)
		if status != http.StatusOK {
			t.Fatalf("status %d, want 200 (%s)", status, raw)
		}
		if ct := hdr.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Errorf("content type %q, want application/x-ndjson", ct)
		}
		checkGolden(t, "stream_ok", raw)
		assertFrameSeq(t, raw, []string{proto.FrameCols, proto.FrameRows, proto.FrameRows, proto.FrameEnd})
	})

	t.Run("mid-stream-error", func(t *testing.T) {
		status, raw, _ := postQuery(t, ts, `{"tenant":"t1","engine":"typer","sql":"midfail"}`)
		if status != http.StatusOK {
			// The stream had already started; the failure must ride in
			// an error frame, not an HTTP status.
			t.Fatalf("status %d, want 200 with trailing error frame (%s)", status, raw)
		}
		checkGolden(t, "stream_midfail", raw)
		frames := assertFrameSeq(t, raw, []string{proto.FrameCols, proto.FrameRows, proto.FrameError})
		if f := frames[len(frames)-1]; f.Code != proto.CodeExec {
			t.Errorf("error frame code %q, want %q", f.Code, proto.CodeExec)
		}
	})

	t.Run("pre-stream-error", func(t *testing.T) {
		status, raw, _ := postQuery(t, ts, `{"tenant":"t1","engine":"typer","sql":"earlyfail"}`)
		if status != http.StatusUnprocessableEntity {
			t.Fatalf("status %d, want 422 (%s)", status, raw)
		}
		checkGolden(t, "error_early", raw)
		e, err := proto.DecodeErrorBody(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		if e.Code != proto.CodeExec {
			t.Errorf("code %q, want %q", e.Code, proto.CodeExec)
		}
	})

	t.Run("bad-request", func(t *testing.T) {
		status, raw, _ := postQuery(t, ts, `{"sql":"ok","bogus":1}`)
		if status != http.StatusBadRequest {
			t.Fatalf("status %d, want 400 (%s)", status, raw)
		}
		if _, err := proto.DecodeErrorBody(bytes.NewReader(raw)); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAutoIsPreparedOnly pins the engine field's contract for "auto":
// a request decodes with it only when it is a prepared execution.
func TestAutoIsPreparedOnly(t *testing.T) {
	for _, tc := range []struct {
		body string
		ok   bool
	}{
		{`{"engine":"auto","sql":"select 1","prepared":true}`, true},
		{`{"engine":"auto","sql":"select 1"}`, false},
		{`{"engine":"hybrid","sql":"select 1"}`, true},
	} {
		_, err := proto.DecodeQueryRequest(strings.NewReader(tc.body))
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want accepted = %v", tc.body, err, tc.ok)
		}
		if err != nil && !strings.Contains(err.Error(), `engine "auto" requires a prepared execution`) {
			t.Errorf("%s: err = %v, want the prepared-only rejection", tc.body, err)
		}
	}
}

// TestConformanceOverload pins the backpressure shape: a full admission
// queue turns into HTTP 429 with the scheduler's deterministic
// retry-after estimate in both the body and the Retry-After header —
// and never into a partial stream.
func TestConformanceOverload(t *testing.T) {
	svc := server.New(server.Config{WorkerBudget: 1, MaxConcurrent: 1, MaxQueued: 1, Executor: stubExec{}})
	defer svc.Close()
	ts := httptest.NewServer(proto.NewServer(svc, fixedNow).Handler())
	defer ts.Close()

	// Occupy the slot and the queue with two in-flight requests.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	release := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		go func() {
			req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/query",
				strings.NewReader(`{"tenant":"hog","engine":"typer","sql":"block"}`))
			resp, err := ts.Client().Do(req)
			if err == nil {
				resp.Body.Close()
			}
			release <- struct{}{}
		}()
	}
	waitStats(t, svc, func(st server.Stats) bool { return st.InFlight == 1 && st.Queued == 1 })

	status, raw, hdr := postQuery(t, ts, `{"tenant":"hog","engine":"typer","sql":"block"}`)
	if status != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (%s)", status, raw)
	}
	checkGolden(t, "error_overload", raw)
	e, err := proto.DecodeErrorBody(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if e.Code != proto.CodeOverloaded || e.Tenant != "hog" || e.Queued != 1 || e.RetryAfterMs <= 0 {
		t.Errorf("overload body %+v lacks backpressure fields", e)
	}
	if ra := hdr.Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After header")
	}
	cancel()
	<-release
	<-release
}

// waitStats polls the service stats until cond holds.
func waitStats(t *testing.T, svc *server.Service, cond func(server.Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond(svc.Stats()) {
		if time.Now().After(deadline) {
			t.Fatalf("stats never converged: %+v", svc.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// assertFrameSeq strict-decodes every line of a response body and
// checks the frame type sequence.
func assertFrameSeq(t *testing.T, raw []byte, want []string) []*proto.Frame {
	t.Helper()
	var frames []*proto.Frame
	for i, line := range bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n")) {
		f, err := proto.DecodeFrame(line)
		if err != nil {
			t.Fatalf("line %d %q: %v", i, line, err)
		}
		frames = append(frames, f)
	}
	if len(frames) != len(want) {
		t.Fatalf("%d frames, want %d", len(frames), len(want))
	}
	for i, f := range frames {
		if f.Type != want[i] {
			t.Fatalf("frame %d is %q, want %q", i, f.Type, want[i])
		}
	}
	return frames
}

// FuzzProtoDecode chases panics and shape-check escapes in the strict
// decoders. Every input that decodes successfully must re-encode and
// re-decode to the same value (round-trip stability), and the frame
// decoder with its rows-frame fast path must agree with the reference
// decoder on every input: same accept/reject, same error, same frame.
func FuzzProtoDecode(f *testing.F) {
	for _, name := range []string{"stream_ok", "stream_midfail", "error_early", "error_overload"} {
		raw, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
		for _, line := range bytes.Split(raw, []byte("\n")) {
			f.Add(line)
		}
	}
	seeds := []string{
		`{"frame":"rows","rows":[[-0]]}`,
		`{"frame":"rows","rows":[[01]]}`,
		`{"frame":"rows","rows":[[1.0]]}`,
		`{"frame":"rows","rows":[[1e3]]}`,
		`{"frame":"rows","rows":[[9223372036854775808]]}`,
		`{"frame":"rows","rows":[[-9223372036854775808,9223372036854775807]]}`,
		`{"frame":"rows","rows":[[1,]]}`,
		`{"frame":"rows","rows":[[]]}`,
		`{"frame":"rows","rows":[null]}`,
		`{"frame":"rows","rows":[[1]],"rows":[[2]]}`,
		`{"frame":"rows","rows":[[1]]} {"frame":"rows","rows":[[2]]}`,
		`{"rows":[[1]],"frame":"rows"}`,
		`{"frame":"cols","cols":[{"name":"a","type":"int64"}]}`,
		`{"frame":"rows","rows":[[1,2],[3,4]]}`,
		`{"frame":"end","engine":"typer","row_count":3,"elapsed_ms":0.25}`,
		`{"frame":"error","error":"boom","code":"exec_error"}`,
		`{"tenant":"t","engine":"auto","sql":"SELECT 1","prepared":true,"args":["1"]}`,
		`{"sql":"SELECT COUNT(*) FROM lineitem"}`,
		`{"error":"queue full","code":"overloaded","tenant":"t","queued":7,"retry_after_ms":150}`,
		`{"frame":"end"}`,
		`{"frame":"rows","rows":[]}`,
		`not json at all`,
		`{}`,
		`{"frame":"cols","cols":[{"name":"a","type":"int64"}]} trailing`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := proto.DecodeFrame(data)
		ref, refErr := proto.DecodeFrameStrict(data)
		if fmt.Sprint(err) != fmt.Sprint(refErr) || !reflect.DeepEqual(fr, ref) {
			t.Fatalf("%q: DecodeFrame = %+v, %v; strict decoder = %+v, %v", data, fr, err, ref, refErr)
		}
		if err == nil {
			reenc, err := jsonMarshal(fr)
			if err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			fr2, err := proto.DecodeFrame(reenc)
			if err != nil {
				t.Fatalf("re-decode %q: %v", reenc, err)
			}
			if fr.Type != fr2.Type || len(fr.Rows) != len(fr2.Rows) || len(fr.Cols) != len(fr2.Cols) {
				t.Fatalf("round trip changed frame: %+v vs %+v", fr, fr2)
			}
		}
		proto.DecodeQueryRequest(bytes.NewReader(data))
		proto.DecodePrepareRequest(bytes.NewReader(data))
		proto.DecodeErrorBody(bytes.NewReader(data))
	})
}

// jsonMarshal appends the newline the wire framing uses.
func jsonMarshal(f *proto.Frame) ([]byte, error) {
	raw, err := json.Marshal(f)
	return raw, err
}

// TestMetricsReportSIMDPath pins the paradigms_simd_avx512 gauge: 1
// exactly when the kernels chose their AVX-512 path at startup.
func TestMetricsReportSIMDPath(t *testing.T) {
	svc := newStubService()
	defer svc.Close()
	ts := httptest.NewServer(proto.NewServer(svc, fixedNow).Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	want := "paradigms_simd_avx512 0\n"
	if simd.AVX512() {
		want = "paradigms_simd_avx512 1\n"
	}
	if !strings.Contains(string(raw), "# TYPE paradigms_simd_avx512 gauge\n"+want) {
		t.Errorf("/metricsz lacks the gauge line %q:\n%s", want, raw)
	}
}
