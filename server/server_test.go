package server_test

// Tests for the sweep service: HTTP submissions produce summaries
// byte-identical to serial in-process sweeps even when jobs run
// concurrently, cancellation lands fast and leaks nothing, the SSE
// stream replays from the start and terminates with the final view, and
// the queue applies backpressure instead of buffering without bound.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"hydee"
	"hydee/server"
)

// sweepRuns is the reference sweep: three protocols, a failure with
// recovery, a sharded store — enough surface that accidental
// nondeterminism in the serving path would show.
func sweepRuns() []hydee.SweepSpec {
	return []hydee.SweepSpec{
		{App: "cg", NP: 16, Iters: 3, Proto: "hydee", Clusters: 4, CheckpointEvery: 2, FailAt: "ckpts:1@8"},
		{App: "mg", NP: 16, Iters: 3, Proto: "coord", CheckpointEvery: 2},
		{App: "ft", NP: 16, Iters: 2, Proto: "native"},
	}
}

func newTestServer(t *testing.T, cfg server.Config) *server.Server {
	t.Helper()
	if cfg.EventDir == "" {
		cfg.EventDir = t.TempDir()
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Close(ctx)
	})
	return srv
}

func submitHTTP(t *testing.T, ts *httptest.Server, req server.JobRequest) server.JobView {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	var view server.JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	return view
}

func waitDone(t *testing.T, srv *server.Server, id int) server.JobView {
	t.Helper()
	done, err := srv.Done(id)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("job %d did not finish", id)
	}
	view, err := srv.Job(id)
	if err != nil {
		t.Fatal(err)
	}
	return view
}

// rawSummaries fetches a job view keeping the summaries' JSON bytes
// unparsed, for exact byte comparison against a serial sweep.
func rawSummaries(t *testing.T, ts *httptest.Server, id int) (string, []byte) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%d", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job %d: status %d", id, resp.StatusCode)
	}
	var view struct {
		State     string          `json:"state"`
		Summaries json.RawMessage `json:"summaries"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	return view.State, view.Summaries
}

// TestConcurrentHTTPSweepsMatchSerial is the determinism acceptance: two
// jobs of the same sweep submitted over HTTP and run concurrently yield
// summaries byte-identical to each other and to a serial in-process
// sweep of the same specs.
func TestConcurrentHTTPSweepsMatchSerial(t *testing.T) {
	srv := newTestServer(t, server.Config{Concurrency: 2, Parallelism: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	a := submitHTTP(t, ts, server.JobRequest{Label: "a", Runs: sweepRuns()})
	b := submitHTTP(t, ts, server.JobRequest{Label: "b", Runs: sweepRuns()})
	if av := waitDone(t, srv, a.ID); av.State != server.StateDone {
		t.Fatalf("job a: state %s (%s)", av.State, av.Error)
	}
	if bv := waitDone(t, srv, b.ID); bv.State != server.StateDone {
		t.Fatalf("job b: state %s (%s)", bv.State, bv.Error)
	}

	specs, err := hydee.Experiments(sweepRuns())
	if err != nil {
		t.Fatal(err)
	}
	serial, err := hydee.RunExperiments(context.Background(), specs, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(serial)
	if err != nil {
		t.Fatal(err)
	}

	_, gotA := rawSummaries(t, ts, a.ID)
	_, gotB := rawSummaries(t, ts, b.ID)
	if !bytes.Equal(gotA, want) {
		t.Errorf("job a summaries differ from serial sweep:\nhttp:   %s\nserial: %s", gotA, want)
	}
	if !bytes.Equal(gotB, want) {
		t.Errorf("job b summaries differ from serial sweep:\nhttp:   %s\nserial: %s", gotB, want)
	}

	// The concurrent jobs also wrote disjoint per-run event files.
	for _, v := range []server.JobView{a, b} {
		entries, err := os.ReadDir(v.EventDir)
		if err != nil {
			t.Fatalf("job %d event dir: %v", v.ID, err)
		}
		if len(entries) != len(sweepRuns()) {
			t.Errorf("job %d: %d event files, want %d", v.ID, len(entries), len(sweepRuns()))
		}
	}
	if a.EventDir == b.EventDir {
		t.Errorf("jobs share an event dir: %s", a.EventDir)
	}
}

// TestCancelRunningJob checks DELETE semantics through the direct API:
// cancellation of a mid-sweep job lands within 100ms and the service
// winds down without leaking goroutines.
func TestCancelRunningJob(t *testing.T) {
	before := runtime.NumGoroutine()
	srv, err := server.New(server.Config{EventDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}

	runs := make([]hydee.SweepSpec, 64)
	for i := range runs {
		runs[i] = hydee.SweepSpec{App: "cg", NP: 16, Iters: 50, Proto: "native"}
	}
	view, err := srv.Submit(server.JobRequest{Runs: runs, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}

	// Gate on the first lifecycle event so the engines are demonstrably
	// mid-run when the cancel arrives.
	events, cancelSub, err := srv.Subscribe(view.ID)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-events:
	case <-time.After(30 * time.Second):
		t.Fatal("no event from the running job")
	}
	cancelSub()

	start := time.Now()
	if _, err := srv.Cancel(view.ID); err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, srv, view.ID)
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Errorf("cancellation took %v, want < 100ms", elapsed)
	}
	if final.State != server.StateCanceled {
		t.Errorf("state %s, want canceled (err %q)", final.State, final.Error)
	}
	// Cancel is idempotent on a finished job.
	if v, err := srv.Cancel(view.ID); err != nil || v.State != server.StateCanceled {
		t.Errorf("re-cancel: state %s, err %v", v.State, err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Close(ctx); err != nil {
		t.Fatal(err)
	}
	// Goroutines settle back to the baseline (small slack for the test
	// runtime's own background goroutines).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+3 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after close", before, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestEventStreamSSE reads a job's event stream over HTTP: replayed from
// the start even when the subscription arrives after the job finished,
// framed as `lifecycle` events carrying the JSONL wire records, and
// terminated by exactly one `summary` event with the final view.
func TestEventStreamSSE(t *testing.T) {
	srv := newTestServer(t, server.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	view := submitHTTP(t, ts, server.JobRequest{Runs: []hydee.SweepSpec{
		{App: "cg", NP: 8, Iters: 2, Proto: "native"},
		{App: "cg", NP: 8, Iters: 2, Proto: "coord", CheckpointEvery: 1},
	}})
	waitDone(t, srv, view.ID) // subscribe late: replay must still deliver everything

	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%d/events", ts.URL, view.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	var (
		event     string
		lifecycle int
		kinds     = map[string]int{}
		summary   *server.JobView
	)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "lifecycle":
				lifecycle++
				var rec struct {
					Kind string `json:"kind"`
				}
				if err := json.Unmarshal([]byte(data), &rec); err != nil {
					t.Fatalf("bad lifecycle data %q: %v", data, err)
				}
				kinds[rec.Kind]++
			case "summary":
				if summary != nil {
					t.Fatal("second summary event")
				}
				summary = new(server.JobView)
				if err := json.Unmarshal([]byte(data), summary); err != nil {
					t.Fatalf("bad summary data %q: %v", data, err)
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lifecycle == 0 || kinds["run-start"] != 2 || kinds["run-complete"] != 2 {
		t.Errorf("lifecycle events: %d total, kinds %v", lifecycle, kinds)
	}
	if summary == nil {
		t.Fatal("stream ended without a summary event")
	}
	if summary.State != server.StateDone || len(summary.Summaries) != 2 {
		t.Errorf("summary: state %s, %d summaries", summary.State, len(summary.Summaries))
	}
}

// TestQueueBackpressureAndErrors drives the 503/400/404 paths: a full
// queue rejects rather than buffers, a bad spec is rejected at submit
// with the resolution error, unknown job ids 404.
func TestQueueBackpressureAndErrors(t *testing.T) {
	srv := newTestServer(t, server.Config{Queue: 1, Concurrency: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	long := make([]hydee.SweepSpec, 32)
	for i := range long {
		long[i] = hydee.SweepSpec{App: "cg", NP: 16, Iters: 50, Proto: "native"}
	}
	a := submitHTTP(t, ts, server.JobRequest{Runs: long, Parallelism: 1})
	// Wait until the worker picked job a up, freeing the queue slot.
	deadline := time.Now().Add(30 * time.Second)
	for {
		v, err := srv.Job(a.ID)
		if err != nil {
			t.Fatal(err)
		}
		if v.State == server.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %d never started", a.ID)
		}
		time.Sleep(5 * time.Millisecond)
	}
	b := submitHTTP(t, ts, server.JobRequest{Runs: long, Parallelism: 1}) // fills the queue

	body, _ := json.Marshal(server.JobRequest{Runs: long})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("over-full submit: status %d, want 503", resp.StatusCode)
	}

	// A spec with an unknown protocol is rejected before taking a slot.
	bad, _ := json.Marshal(server.JobRequest{Runs: []hydee.SweepSpec{{App: "cg", NP: 8, Proto: "bogus"}}})
	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	var apiErr struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(apiErr.Error, "bogus") {
		t.Errorf("bad spec: status %d, error %q", resp.StatusCode, apiErr.Error)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/9999", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id: status %d, want 404", resp.StatusCode)
	}

	// Unblock the drain: cancel both jobs over HTTP.
	for _, id := range []int{a.ID, b.ID} {
		req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/jobs/%d", ts.URL, id), nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("cancel %d: status %d", id, resp.StatusCode)
		}
	}
	for _, id := range []int{a.ID, b.ID} {
		if v := waitDone(t, srv, id); v.State != server.StateCanceled {
			t.Errorf("job %d: state %s, want canceled", id, v.State)
		}
	}
}

// TestGracefulClose: Close drains queued work, then refuses submissions.
func TestGracefulClose(t *testing.T) {
	srv, err := server.New(server.Config{EventDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	view, err := srv.Submit(server.JobRequest{Runs: []hydee.SweepSpec{
		{App: "cg", NP: 8, Iters: 2, Proto: "native"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if v, err := srv.Job(view.ID); err != nil || v.State != server.StateDone {
		t.Errorf("after close: state %s, err %v — queued work must drain, not drop", v.State, err)
	}
	if _, err := srv.Submit(server.JobRequest{Runs: []hydee.SweepSpec{{App: "cg", NP: 8, Proto: "native"}}}); !errors.Is(err, server.ErrClosed) {
		t.Errorf("submit after close: %v, want ErrClosed", err)
	}
}

// TestRegistryEndpoint spot-checks the discoverable backend names.
func TestRegistryEndpoint(t *testing.T) {
	srv := newTestServer(t, server.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/registry")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var reg map[string][]string
	if err := json.NewDecoder(resp.Body).Decode(&reg); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"kernels":   "cg",
		"protocols": "hydee",
		"models":    "myrinet10g",
		"stores":    "sharded",
		"exporters": "jsonl",
	}
	for section, name := range want {
		found := false
		for _, n := range reg[section] {
			if n == name {
				found = true
			}
		}
		if !found {
			t.Errorf("registry %s misses %q: %v", section, name, reg[section])
		}
	}
}

// TestBadAssignRejectedAndServerKeepsServing: a wire spec whose cluster
// assignment or checkpoint interval cannot run is a 400 at submit time —
// it never reaches a worker goroutine, where a panic would take the whole
// process down — and the server serves the next job normally.
func TestBadAssignRejectedAndServerKeepsServing(t *testing.T) {
	srv := newTestServer(t, server.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, run := range []string{
		`{"app":"cg","np":4,"assign":[0,0,-1,-1]}`,
		`{"app":"cg","np":4,"assign":[0,0,2,2]}`,
		`{"app":"cg","np":4,"clusters":2,"ckpt":-1}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"runs":[`+run+`]}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", run, resp.StatusCode)
		}
	}
	good := submitHTTP(t, ts, server.JobRequest{Runs: []hydee.SweepSpec{{App: "cg", NP: 4, Assign: []int{0, 0, 1, 1}}}})
	if v := waitDone(t, srv, good.ID); v.State != server.StateDone {
		t.Errorf("next job: state %s, want done", v.State)
	}
}
