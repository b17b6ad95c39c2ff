package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// newTestServer builds a Server over a throwaway cache plus its HTTP
// front end, and tears both down with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.CacheDir == "" && !cfg.NoCache {
		cfg.CacheDir = t.TempDir() + "/cache"
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
	return s, ts
}

// postJob fires a request body at path and decodes the NDJSON stream
// until the terminal event (result or error), which it returns.
func postJob(t *testing.T, base, path, body string) (events []Event, terminal Event) {
	t.Helper()
	resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
		if ev.Event == "result" || ev.Event == "error" {
			return events, ev
		}
	}
	t.Fatalf("stream ended without a terminal event (status %d, %d events)", resp.StatusCode, len(events))
	return nil, Event{}
}

// startJob posts body and blocks until the job is demonstrably
// executing (first progress event observed on the stream), then keeps
// consuming in the background; the terminal event lands on the
// returned channel, which closes without a value when the stream dies
// first. The returned cancel drops the client connection.
func startJob(t *testing.T, base, path, body string) (<-chan Event, context.CancelFunc) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", base+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for {
		if !sc.Scan() {
			t.Fatalf("stream ended before any progress event: %v", sc.Err())
		}
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if ev.Event == "result" || ev.Event == "error" {
			t.Fatalf("job finished (%+v) before it could be observed executing", ev)
		}
		if ev.Event == "progress" {
			break
		}
	}
	terminal := make(chan Event, 1)
	go func() {
		defer close(terminal)
		defer resp.Body.Close()
		for sc.Scan() {
			var ev Event
			if json.Unmarshal(sc.Bytes(), &ev) == nil && (ev.Event == "result" || ev.Event == "error") {
				terminal <- ev
				return
			}
		}
	}()
	return terminal, cancel
}

func stats(t *testing.T, base string) StatsSnapshot {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatalf("GET /v1/stats: %v", err)
	}
	defer resp.Body.Close()
	var snap StatsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	return snap
}

// waitStats polls /v1/stats until pred holds or the deadline passes.
func waitStats(t *testing.T, base string, what string, pred func(StatsSnapshot) bool) StatsSnapshot {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		snap := stats(t, base)
		if pred(snap) {
			return snap
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats never reached %s: %+v", what, snap)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// smallFault is a quick sweep: 3 base cells + 3 topologies x 2 trials.
const smallFault = `{"family":"fault","n":24,"fracs":[0.05],"trials":2,"seed":7}`
const smallFaultCells = 3 + 3*2

// slowFault runs long enough (hundreds of graph cells on one core) to
// be observed mid-flight and cancelled between cells.
const slowFault = `{"family":"fault","n":256,"fracs":[0.05],"trials":200,"seed":9}`

func TestSweepCompletesAndCaches(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, terminal := postJob(t, ts.URL, "/v1/sweep", smallFault)
	if terminal.Event != "result" {
		t.Fatalf("terminal = %+v, want result", terminal)
	}
	var rows []map[string]any
	if err := json.Unmarshal(terminal.Data, &rows); err != nil || len(rows) != 3 {
		t.Fatalf("result data: %d rows, err %v", len(rows), err)
	}
	snap := stats(t, ts.URL)
	if snap.CellsExecuted != smallFaultCells || snap.CellsCached != 0 {
		t.Fatalf("first run: executed %d cached %d, want %d/0", snap.CellsExecuted, snap.CellsCached, smallFaultCells)
	}

	// An identical request after completion is a fresh flight whose
	// cells all replay from the shared content-addressed cache.
	_, terminal2 := postJob(t, ts.URL, "/v1/sweep", smallFault)
	if terminal2.Event != "result" || !bytes.Equal(terminal.Data, terminal2.Data) {
		t.Fatalf("cached replay diverged: %+v", terminal2)
	}
	snap = stats(t, ts.URL)
	if snap.CellsExecuted != smallFaultCells || snap.CellsCached != smallFaultCells {
		t.Fatalf("replay run: executed %d cached %d, want %d/%d", snap.CellsExecuted, snap.CellsCached, smallFaultCells, smallFaultCells)
	}
}

func TestInvalidRequestsRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, body := range []string{
		`{"family":"warp"}`,
		`{"family":"fault","n":4}`,
		`{"family":"fault","nope":1}`,
		`not json`,
		`{"family":"latency","topo":"bogus"}`,
		`{"family":"chaos","targets":["bogus"]}`,
		`{"family":"fig10","pattern":"bogus"}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	if snap := stats(t, ts.URL); snap.Rejected != 7 {
		t.Fatalf("rejected = %d, want 7", snap.Rejected)
	}
	// PatternFor's "alltoall" alias is still admitted.
	alias := Request{Family: "latency", Pattern: "alltoall"}
	if err := alias.normalize("sweep"); err != nil {
		t.Fatalf("alltoall refused: %v", err)
	}
}

func TestCertifyEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, terminal := postJob(t, ts.URL, "/v1/certify", `{}`)
	if terminal.Event != "result" {
		t.Fatalf("certify terminal = %+v", terminal)
	}
	var certs []CertSummary
	if err := json.Unmarshal(terminal.Data, &certs); err != nil || len(certs) == 0 {
		t.Fatalf("certify data: %d certs, err %v", len(certs), err)
	}
	for _, c := range certs {
		if !c.OK {
			t.Fatalf("certificate %s not OK: status %s failed %v", c.Combo, c.Status, c.Failed)
		}
	}
}

// TestQueueFullSheds fills the worker and the queue, then asserts the
// next distinct request is shed with 429 + Retry-After rather than
// buffered.
func TestQueueFullSheds(t *testing.T) {
	_, ts := newTestServer(t, Config{Concurrency: 1, QueueDepth: 1, RetryAfter: 3 * time.Second})

	// Occupy the only worker, then wait until it has dequeued (the
	// queue slot is free again).
	blockerDone := make(chan struct{})
	go func() {
		defer close(blockerDone)
		postJob(t, ts.URL, "/v1/sweep", slowFault)
	}()
	waitStats(t, ts.URL, "blocker dequeued", func(s StatsSnapshot) bool {
		return s.Accepted >= 1 && s.QueueLen == 0
	})

	// Fill the queue with a second, distinct job.
	queuedDone := make(chan struct{})
	go func() {
		defer close(queuedDone)
		postJob(t, ts.URL, "/v1/sweep", smallFault)
	}()
	waitStats(t, ts.URL, "queue full", func(s StatsSnapshot) bool { return s.QueueLen == 1 })

	// A third distinct job must shed.
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json",
		strings.NewReader(`{"family":"path","log_sizes":[3]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After = %q, want \"3\"", ra)
	}
	if snap := stats(t, ts.URL); snap.Shed != 1 {
		t.Fatalf("shed = %d, want 1", snap.Shed)
	}
	<-blockerDone
	<-queuedDone
}

// TestDedupSharesOneExecution attaches two identical requests to one
// flight while it waits behind a busy worker; the shared cells execute
// exactly once and both clients get the same result.
func TestDedupSharesOneExecution(t *testing.T) {
	_, ts := newTestServer(t, Config{Concurrency: 1, QueueDepth: 4})

	blockerDone := make(chan struct{})
	go func() {
		defer close(blockerDone)
		postJob(t, ts.URL, "/v1/sweep", slowFault)
	}()
	waitStats(t, ts.URL, "blocker dequeued", func(s StatsSnapshot) bool {
		return s.Accepted >= 1 && s.QueueLen == 0
	})

	// Two identical requests while the worker is busy: the first
	// enqueues a flight, the second attaches to it.
	type outcome struct {
		dedup    bool
		terminal Event
	}
	results := make(chan outcome, 2)
	for i := 0; i < 2; i++ {
		go func() {
			events, terminal := postJob(t, ts.URL, "/v1/sweep", smallFault)
			results <- outcome{events[0].Dedup, terminal}
		}()
		if i == 0 {
			waitStats(t, ts.URL, "first twin queued", func(s StatsSnapshot) bool { return s.QueueLen == 1 })
		} else {
			waitStats(t, ts.URL, "second twin deduped", func(s StatsSnapshot) bool { return s.Deduped == 1 })
		}
	}
	a, b := <-results, <-results
	<-blockerDone

	if a.dedup == b.dedup {
		t.Fatalf("dedup flags = %v/%v, want exactly one true", a.dedup, b.dedup)
	}
	if a.terminal.Event != "result" || b.terminal.Event != "result" {
		t.Fatalf("terminals = %q/%q, want result/result", a.terminal.Event, b.terminal.Event)
	}
	if !bytes.Equal(a.terminal.Data, b.terminal.Data) {
		t.Fatal("deduped waiters saw different results")
	}
	// The twin pair's cells ran once: blocker cells + one smallFault set.
	snap := stats(t, ts.URL)
	blockerCells := uint64(3 + 3*200)
	if snap.CellsExecuted != blockerCells+smallFaultCells {
		t.Fatalf("executed %d cells, want %d (shared cells must run once)",
			snap.CellsExecuted, blockerCells+smallFaultCells)
	}
}

// TestClientCancelStopsCells disconnects the only waiter mid-sweep and
// asserts the harness stopped between cells: the job ends cancelled
// with fewer cells executed than the grid holds.
func TestClientCancelStopsCells(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Observe the job executing cells, then walk away.
	terminal, cancel := startJob(t, ts.URL, "/v1/sweep", slowFault)
	cancel()
	<-terminal

	snap := waitStats(t, ts.URL, "job cancelled", func(s StatsSnapshot) bool { return s.Cancelled == 1 })
	total := uint64(3 + 3*200)
	if snap.CellsExecuted >= total {
		t.Fatalf("executed %d of %d cells despite cancellation", snap.CellsExecuted, total)
	}
	if snap.Completed != 0 {
		t.Fatal("cancelled job must not count as completed")
	}
}

// TestDeadlineExpiresRequest bounds a slow job with a tiny per-request
// deadline; the waiter gets a terminal deadline error and, being the
// only one, its departure cancels the flight.
func TestDeadlineExpiresRequest(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"family":"fault","n":256,"fracs":[0.05],"trials":200,"seed":11,"timeout_ms":50}`
	_, terminal := postJob(t, ts.URL, "/v1/sweep", body)
	if terminal.Event != "error" || terminal.Code != CodeDeadline {
		t.Fatalf("terminal = %+v, want deadline error", terminal)
	}
	waitStats(t, ts.URL, "abandoned job cancelled", func(s StatsSnapshot) bool { return s.Cancelled == 1 })
}

// TestShutdownDrainsAcceptedJobs proves the drain contract: admission
// stops (readyz 503, new jobs 503) while jobs accepted before the
// drain run to completion and deliver their results.
func TestShutdownDrainsAcceptedJobs(t *testing.T) {
	cfg := Config{CacheDir: t.TempDir() + "/cache"}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	terminals, stop := startJob(t, ts.URL, "/v1/sweep", slowFault)
	defer stop()

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()
	waitStats(t, ts.URL, "draining", func(s StatsSnapshot) bool { return s.Draining })

	if resp, err := http.Get(ts.URL + "/readyz"); err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %v status %d, want 503", err, resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	if resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(smallFault)); err != nil ||
		resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("new job while draining: %v status %d, want 503", err, resp.StatusCode)
	} else {
		resp.Body.Close()
	}

	if terminal := <-terminals; terminal.Event != "result" {
		t.Fatalf("accepted job dropped during drain: %+v", terminal)
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("drain was forced: %v", err)
	}
}

// TestShutdownDeadlineCancelsStragglers: when the drain deadline
// passes first, in-flight jobs are cancelled (clients get a canceled
// terminal event) instead of holding shutdown hostage.
func TestShutdownDeadlineCancelsStragglers(t *testing.T) {
	s, err := New(Config{CacheDir: t.TempDir() + "/cache"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	terminals, stop := startJob(t, ts.URL, "/v1/sweep", slowFault)
	defer stop()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded", err)
	}
	if terminal := <-terminals; terminal.Event != "error" || terminal.Code != CodeCanceled {
		t.Fatalf("straggler terminal = %+v, want canceled error", terminal)
	}
}

// TestRunFlightPanicIsolation feeds runFlight a job that panics (nil
// request) and asserts the daemon converts it into a terminal panic
// event instead of dying.
func TestRunFlightPanicIsolation(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	fl := newFlight(s.baseCtx, "deadbeefdeadbeef", nil)
	_, sub, _ := fl.attach()
	s.jobs.Add(1)
	s.runFlight(fl)
	select {
	case ev := <-sub.final:
		if ev.Event != "error" || ev.Code != CodePanic {
			t.Fatalf("terminal = %+v, want panic error", ev)
		}
	default:
		t.Fatal("no terminal event after panic")
	}
	if fl.waiters() != 1 {
		t.Fatalf("waiters = %d, want the undetached subscriber", fl.waiters())
	}
	fl.detach(0)
	// The daemon survives and keeps serving.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after panic: %v status %d", err, resp.StatusCode)
	}
	resp.Body.Close()
	if snap := stats(t, ts.URL); snap.Panics != 1 {
		t.Fatalf("panics = %d, want 1", snap.Panics)
	}
}

// TestFingerprintDedupsDefaults: a spelled-out request and one relying
// on defaults normalize to the same fingerprint; deadline never
// participates.
func TestFingerprintDedupsDefaults(t *testing.T) {
	var a, b, c Request
	mustUnmarshal(t, `{"family":"fault"}`, &a)
	mustUnmarshal(t, `{"family":"fault","n":64,"seed":1,"fracs":[0.05],"trials":4,"timeout_ms":9999}`, &b)
	mustUnmarshal(t, `{"family":"fault","n":64,"seed":2,"fracs":[0.05],"trials":4}`, &c)
	for _, r := range []*Request{&a, &b, &c} {
		if err := r.normalize("sweep"); err != nil {
			t.Fatal(err)
		}
	}
	if a.fingerprint() != b.fingerprint() {
		t.Fatal("equivalent requests fingerprint differently")
	}
	if a.fingerprint() == c.fingerprint() {
		t.Fatal("different seeds fingerprint identically")
	}
}

func mustUnmarshal(t *testing.T, s string, v any) {
	t.Helper()
	if err := json.Unmarshal([]byte(s), v); err != nil {
		t.Fatal(err)
	}
}

// TestHealthEndpoints smoke-checks the probes on a healthy server.
func TestHealthEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d, want 200", path, resp.StatusCode)
		}
	}
}

// TestProgressEventsStream asserts the NDJSON stream carries harness
// progress ticks between acceptance and the terminal event.
func TestProgressEventsStream(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	events, terminal := postJob(t, ts.URL, "/v1/sweep", smallFault)
	if terminal.Event != "result" {
		t.Fatalf("terminal = %+v", terminal)
	}
	progress := 0
	for _, ev := range events {
		if ev.Event == "progress" {
			progress++
			if ev.Total == 0 || ev.Done > ev.Total {
				t.Fatalf("malformed progress event %+v", ev)
			}
		}
	}
	if progress == 0 {
		t.Fatal("no progress events in stream")
	}
	if events[0].Event != "accepted" {
		t.Fatalf("first event = %+v, want accepted", events[0])
	}
}
