package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/parity"
	"repro/internal/server"
	"repro/internal/worker"
)

// TestMain lets this test binary serve as its own execution worker: the
// pool re-execs os.Executable with TETRAD_WORKER=1, and ExitIfWorker
// diverts the child into the worker loop before any test runs.
func TestMain(m *testing.M) {
	worker.ExitIfWorker()
	os.Exit(m.Run())
}

// serve boots a server under opts behind an HTTP listener and, at
// cleanup, drains it and holds it to the serving invariants: no worker or
// artifact process outlives it, and no goroutine it started.
func serve(t *testing.T, opts server.Options) (*server.Server, *httptest.Server) {
	t.Helper()
	goroutines := parity.Settle()
	srv := server.New(opts)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		_ = srv.Drain(nil)
		ts.Close()
		if p := srv.Pool(); p != nil {
			st := p.Stats()
			parity.Children{Spawns: st.Spawns, Reaped: st.Reaped, Live: st.Live}.Check(t, "worker pool")
		}
		if n := srv.Native(); n != nil {
			st := n.Stats()
			parity.Children{Spawns: st.Spawns, Reaped: st.Reaped, Live: st.Live}.Check(t, "native runner")
		}
		goroutines.Check(t, 10*time.Second)
	})
	return srv, ts
}

// inProcessServer boots a server that runs programs in its own process.
func inProcessServer(t *testing.T) (*server.Server, *httptest.Server) {
	t.Helper()
	return serve(t, server.Options{Logf: t.Logf})
}

// poolServer boots a worker-isolated server whose workers are this test
// binary.
func poolServer(t *testing.T, mutate func(*server.Options)) (*server.Server, *httptest.Server) {
	t.Helper()
	opts := server.Options{
		Isolation:    server.IsolationPool,
		MaxInFlight:  8,
		MaxQueue:     256,
		QueueTimeout: 10 * time.Second,
		DrainGrace:   2 * time.Second,
		Logf:         t.Logf,
	}
	if mutate != nil {
		mutate(&opts)
	}
	return serve(t, opts)
}

// warmUp answers one request on the worker path, so a test starts with a
// live worker rather than measuring the first one's start.
func warmUp(t *testing.T, url string) {
	t.Helper()
	resp, body := parity.Post(t, url+"/run", server.RunRequest{
		Source: "def main():\n    print(6 * 7)\n", File: "warmup.ttr",
	}, nil)
	var rr server.RunResponse
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &rr) != nil || rr.Stdout != "42\n" || rr.Isolation != server.TierWorker {
		t.Fatalf("warm-up request: status %d: %s", resp.StatusCode, body)
	}
}

// TestWorkerPathExecutesBothBackends is the basic isolated round trip:
// both backends execute inside a worker process and the response says so.
func TestWorkerPathExecutesBothBackends(t *testing.T) {
	_, ts := poolServer(t, nil)
	warmUp(t, ts.URL)

	for _, backend := range []string{server.BackendInterp, server.BackendVM} {
		resp, body := parity.Post(t, ts.URL+"/run", server.RunRequest{
			Source: "def main():\n    print(6 * 7)\n", File: "iso.ttr", Backend: backend,
		}, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", backend, resp.StatusCode, body)
		}
		var rr server.RunResponse
		if err := json.Unmarshal(body, &rr); err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		if !rr.OK || rr.Stdout != "42\n" {
			t.Fatalf("%s: bad result %+v", backend, rr)
		}
		if rr.Isolation != server.TierWorker {
			t.Errorf("%s: isolation = %q, want %q", backend, rr.Isolation, server.TierWorker)
		}
		if rr.Attempts != 1 {
			t.Errorf("%s: attempts = %d, want 1", backend, rr.Attempts)
		}
		if rr.RequestID == "" {
			t.Errorf("%s: empty request_id", backend)
		}
	}
}

// TestChaosSoak is the acceptance soak: 64 clients × 50 requests against
// the worker tier while fault injection kills a hefty fraction of worker
// attempts (panic before work, SIGKILL after work, corrupted pipes).
// Every request must receive a well-formed reply — a correct 200, a 422
// quarantine, or a 429/503 — with zero goroutine leaks and zero orphaned
// worker processes after drain.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak; skipped in -short")
	}
	srv, ts := poolServer(t, func(o *server.Options) {
		o.WorkerEnv = []string{fault.EnvVar + "=worker-panic=0.1,worker-exit=0.1,pipe-truncate=0.05"}
		o.Retry = worker.RetryPolicy{MaxAttempts: 6}
		// Dice-driven crashes on healthy programs must not dominate the
		// soak with 422s; quarantine gets its own deterministic test.
		o.Quarantine = worker.QuarantinePolicy{Threshold: -1}
		o.Logf = nil // too chatty at this volume
	})
	warmUp(t, ts.URL)

	// Distinct sources so the soak exercises many program hashes and both
	// backends.
	const variants = 8
	reqs := make([]server.RunRequest, variants)
	wants := make([]string, variants)
	for i := range reqs {
		backend := server.BackendInterp
		if i%2 == 1 {
			backend = server.BackendVM
		}
		reqs[i] = server.RunRequest{
			Source:  fmt.Sprintf("def main():\n    print(%d + %d)\n", 40+i, 2),
			File:    fmt.Sprintf("chaos%d.ttr", i),
			Backend: backend,
		}
		wants[i] = fmt.Sprintf("%d\n", 42+i)
	}

	const clients = 64
	const perClient = 50
	var ok200, rej422, rej429, rej503 atomic.Int64
	client := &http.Client{Timeout: 60 * time.Second}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				pick := (c + i) % variants
				data, _ := json.Marshal(reqs[pick])
				resp, err := client.Post(ts.URL+"/run", "application/json", bytes.NewReader(data))
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				body, err := parity.Body(resp)
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				var rr server.RunResponse
				if !parity.Reply(t, resp, body, &rr) {
					switch resp.StatusCode {
					case http.StatusUnprocessableEntity:
						rej422.Add(1)
					case http.StatusTooManyRequests:
						rej429.Add(1)
					case http.StatusServiceUnavailable:
						rej503.Add(1)
					default:
						t.Errorf("client %d: unexpected status %d: %s", c, resp.StatusCode, body)
						return
					}
					continue
				}
				ok200.Add(1)
				if !rr.OK || rr.Stdout != wants[pick] {
					t.Errorf("client %d: wrong result %+v, want stdout %q", c, rr, wants[pick])
					return
				}
				if rr.Attempts < 1 {
					t.Errorf("client %d: attempts %d < 1", c, rr.Attempts)
				}
			}
		}()
	}
	wg.Wait()

	if total := ok200.Load() + rej422.Load() + rej429.Load() + rej503.Load(); total != clients*perClient {
		t.Errorf("accounted responses = %d, want %d", total, clients*perClient)
	}

	st := srv.Pool().Stats()
	m := srv.Metrics()
	t.Logf("chaos: %d ok, %d/%d/%d rejected (422/429/503), %d fallbacks; pool: %+v",
		ok200.Load(), rej422.Load(), rej429.Load(), rej503.Load(), m.Fallbacks, st)

	// The soak must actually have been chaotic: at least 20%% of worker
	// attempts killed mid-run.
	if st.Runs == 0 {
		t.Fatal("no worker attempts recorded; soak never reached the worker tier")
	}
	if frac := float64(st.Crashes) / float64(st.Runs); frac < 0.20 {
		t.Errorf("crash fraction %.3f (crashes=%d attempts=%d), want >= 0.20 — chaos too tame",
			frac, st.Crashes, st.Runs)
	}
	if st.RetriedOK == 0 {
		t.Error("no request ever succeeded after a retry; retry path untested")
	}
	if len(m.WorkerCrashes) == 0 {
		t.Error("crash-forensics ring is empty after a chaos soak")
	}
	for _, cr := range m.WorkerCrashes {
		if cr.RequestID == "" || cr.Reason == "" || cr.PID == 0 {
			t.Errorf("incomplete crash record: %+v", cr)
		}
	}

	// Drain; poolServer's cleanup then checks that no goroutine and no
	// worker process is left. Idle keep-alive connections hold goroutines
	// that are not leaks: shut the HTTP layer down before it counts.
	if err := srv.Drain(nil); err != nil {
		t.Fatalf("drain: %v", err)
	}
	client.CloseIdleConnections()
	ts.Close()
}

// TestGovernorBudgetsRearmedPerAttempt proves the resource budgets are
// re-armed for every execution attempt: a program consuming a large
// fraction of the step ceiling is run repeatedly while workers are
// randomly SIGKILLed, and no retry may ever trip the step budget — which
// is exactly what would happen if attempts shared a governor.
func TestGovernorBudgetsRearmedPerAttempt(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test; skipped in -short")
	}
	srv, ts := poolServer(t, func(o *server.Options) {
		o.WorkerEnv = []string{fault.EnvVar + "=worker-exit=0.3"}
		o.Retry = worker.RetryPolicy{MaxAttempts: 8}
		o.Quarantine = worker.QuarantinePolicy{Threshold: -1}
		o.Logf = nil
	})
	warmUp(t, ts.URL)

	// Probe the program's actual step cost on a plain in-process server,
	// then run the chaos soak with a ceiling ~1.3× that cost: every fresh
	// attempt fits comfortably, but any budget shared across two attempts
	// (2× the cost) would trip — which is exactly the regression this
	// test exists to catch.
	src := "def main():\n    i = 0\n    while i < 1000:\n        i = i + 1\n    print(i)\n"
	minSteps := probeMinSteps(t, src)
	t.Logf("probed step cost: budget trips below %d steps", minSteps)
	req := server.RunRequest{
		Source: src, File: "budget.ttr",
		Limits: &server.LimitSpec{MaxSteps: int64(minSteps) + int64(minSteps)/3},
	}

	var wg sync.WaitGroup
	var ok200, other atomic.Int64
	client := &http.Client{Timeout: 60 * time.Second}
	for c := 0; c < 16; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				data, _ := json.Marshal(req)
				resp, err := client.Post(ts.URL+"/run", "application/json", bytes.NewReader(data))
				if err != nil {
					t.Errorf("post: %v", err)
					return
				}
				body, _ := parity.Body(resp)
				switch resp.StatusCode {
				case http.StatusOK:
					var rr server.RunResponse
					if err := json.Unmarshal(body, &rr); err != nil {
						t.Errorf("bad 200: %v", err)
						return
					}
					if !rr.OK {
						// Any budget trip here is the bug this test exists
						// to catch.
						t.Errorf("run failed (attempts=%d): %+v", rr.Attempts, rr.Error)
						return
					}
					if rr.Stdout != "1000\n" {
						t.Errorf("stdout %q", rr.Stdout)
						return
					}
					ok200.Add(1)
				case http.StatusServiceUnavailable, http.StatusTooManyRequests:
					other.Add(1) // admission pressure is fine; budget trips are not
				default:
					t.Errorf("status %d: %s", resp.StatusCode, body)
					return
				}
			}
		}()
	}
	wg.Wait()

	st := srv.Pool().Stats()
	t.Logf("budget soak: %d ok, %d rejected; pool: %+v", ok200.Load(), other.Load(), st)
	if st.Crashes == 0 {
		t.Error("no worker crashes; the re-arm property was not exercised")
	}
	if st.RetriedOK == 0 {
		t.Error("no successful retries; the re-arm property was not exercised across attempts")
	}
}

// probeMinSteps binary-searches the smallest max_steps budget the given
// program completes under, using a fault-free in-process server.
func probeMinSteps(t *testing.T, src string) int {
	t.Helper()
	probe := server.New(server.Options{})
	ts := httptest.NewServer(probe)
	defer ts.Close()
	passes := func(steps int) bool {
		resp, body := parity.Post(t, ts.URL+"/run", server.RunRequest{
			Source: src, File: "probe.ttr",
			Limits: &server.LimitSpec{MaxSteps: int64(steps)},
		}, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("probe status %d: %s", resp.StatusCode, body)
		}
		var rr server.RunResponse
		if err := json.Unmarshal(body, &rr); err != nil {
			t.Fatal(err)
		}
		return rr.OK
	}
	hi := 1024
	for !passes(hi) {
		hi *= 2
		if hi > 1<<22 {
			t.Fatal("probe program never completes within 4M steps")
		}
	}
	lo := 1 // trips
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if passes(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// TestQuarantineCircuitBreaker drives a program that deterministically
// kills every worker it touches: the breaker must trip at the threshold,
// answer 422 with a Retry-After, and subsequent requests must be
// rejected without burning any further workers. The crash forensics must
// carry the client's request ID and the dead worker's last words.
func TestQuarantineCircuitBreaker(t *testing.T) {
	srv, ts := poolServer(t, func(o *server.Options) {
		o.WorkerEnv = []string{fault.EnvVar + "=worker-panic=1"}
		o.Retry = worker.RetryPolicy{MaxAttempts: 2}
		o.Quarantine = worker.QuarantinePolicy{Threshold: 2, Window: time.Minute, TTL: time.Minute}
	})
	// No warm-up: every request crashes a worker here, and the first one
	// starts the worker it needs.

	req := server.RunRequest{Source: "def main():\n    print(1)\n", File: "poison.ttr"}
	resp, body := parity.Post(t, ts.URL+"/run", req, map[string]string{"X-Request-ID": "poison-req-1"})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("first request: status %d, want 422: %s", resp.StatusCode, body)
	}
	parity.Reply(t, resp, body, nil)
	if !strings.Contains(string(body), "poison.ttr") {
		t.Errorf("422 not positioned on the file: %s", body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("422 missing Retry-After")
	}

	crashesBefore := srv.Pool().Stats().Crashes
	resp2, body2 := parity.Post(t, ts.URL+"/run", req, nil)
	if resp2.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("second request: status %d, want 422: %s", resp2.StatusCode, body2)
	}
	if after := srv.Pool().Stats().Crashes; after != crashesBefore {
		t.Errorf("quarantined request still burned workers: crashes %d -> %d", crashesBefore, after)
	}

	m := srv.Metrics()
	if m.Rejected422 != 2 {
		t.Errorf("rejected_422 = %d, want 2", m.Rejected422)
	}
	found := false
	for _, cr := range m.WorkerCrashes {
		if cr.RequestID == "poison-req-1" {
			found = true
			if cr.Hash == "" {
				t.Errorf("crash record missing program hash: %+v", cr)
			}
			if !strings.Contains(cr.StderrTail, "fault injected: worker panic") {
				t.Errorf("crash record does not carry the worker's panic: stderr_tail = %q", cr.StderrTail)
			}
		}
	}
	if !found {
		t.Errorf("no crash-forensics record carries the client request ID: %+v", m.WorkerCrashes)
	}
}

// TestFallbackWhenPoolExhausted: a pool whose worker binary does not
// exist must degrade to in-process execution, not fail requests.
func TestFallbackWhenPoolExhausted(t *testing.T) {
	srv, ts := poolServer(t, func(o *server.Options) {
		o.WorkerCmd = []string{"/nonexistent/tetrad-worker"}
		o.Logf = nil // spawn-failure retry loop is noisy by design
	})

	resp, body := parity.Post(t, ts.URL+"/run", server.RunRequest{
		Source: "def main():\n    print(6 * 7)\n", File: "fb.ttr",
	}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var rr server.RunResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if !rr.OK || rr.Stdout != "42\n" {
		t.Fatalf("bad result %+v", rr)
	}
	if rr.Isolation != server.TierInProc {
		t.Errorf("isolation = %q, want %q (degraded fallback)", rr.Isolation, server.TierInProc)
	}
	if m := srv.Metrics(); m.Fallbacks == 0 {
		t.Error("fallbacks counter not incremented")
	}
}

// TestPanicRecoveryMiddleware: a panic inside request handling must
// produce a well-formed 500 JSON error, count the panic, and leave the
// server serving.
func TestPanicRecoveryMiddleware(t *testing.T) {
	inj := fault.New(1)
	inj.Set(fault.HandlerPanic, 1, 0)
	srv := server.New(server.Options{Faults: inj})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, body := parity.Post(t, ts.URL+"/run", server.RunRequest{
		Source: "def main():\n    print(1)\n", File: "p.ttr",
	}, nil)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %s", resp.StatusCode, body)
	}
	parity.Reply(t, resp, body, nil)
	if m := srv.Metrics(); m.Panics != 1 {
		t.Errorf("panics = %d, want 1", m.Panics)
	}

	// The server must still serve after the panic.
	inj.Set(fault.HandlerPanic, 0, 0)
	resp2, body2 := parity.Post(t, ts.URL+"/run", server.RunRequest{
		Source: "def main():\n    print(2)\n", File: "p.ttr",
	}, nil)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-panic status %d: %s", resp2.StatusCode, body2)
	}
}

// TestHealthzSplitAndDrainOrder: liveness and readiness are distinct
// probes, and a drain flips readiness (503) before admissions close —
// with a drain-announce window during which /run still succeeds.
func TestHealthzSplitAndDrainOrder(t *testing.T) {
	srv := server.New(server.Options{DrainAnnounce: 2 * time.Second})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, path := range []string{"/healthz", "/healthz/ready", "/healthz/live"} {
		if code := get(path); code != http.StatusOK {
			t.Fatalf("%s = %d before drain, want 200", path, code)
		}
	}

	drainDone := make(chan error, 1)
	go func() { drainDone <- srv.Drain(nil) }()

	// Readiness must flip promptly (the announce phase)...
	deadline := time.Now().Add(5 * time.Second)
	for get("/healthz/ready") != http.StatusServiceUnavailable {
		if time.Now().After(deadline) {
			t.Fatal("readiness never flipped to 503 after Drain")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// ...liveness must not...
	if code := get("/healthz/live"); code != http.StatusOK {
		t.Errorf("/healthz/live = %d during drain, want 200", code)
	}
	// ...the legacy probe must agree with readiness...
	if code := get("/healthz"); code != http.StatusServiceUnavailable {
		t.Errorf("/healthz = %d during announce, want 503", code)
	}
	// ...and inside the announce window, admissions are still open.
	resp, body := parity.Post(t, ts.URL+"/run", server.RunRequest{
		Source: "def main():\n    print(7)\n", File: "w.ttr",
	}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("run during announce window: status %d, want 200: %s", resp.StatusCode, body)
	}

	if err := <-drainDone; err != nil {
		t.Fatalf("drain: %v", err)
	}
	// After the drain completes, admissions are closed.
	resp2, _ := parity.Post(t, ts.URL+"/run", server.RunRequest{
		Source: "def main():\n    print(7)\n", File: "w.ttr",
	}, nil)
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("run after drain: status %d, want 503", resp2.StatusCode)
	}
}

// TestRequestIDEchoAndGenerate: well-formed client IDs are echoed in
// header and body; missing or junk IDs are replaced with generated ones.
func TestRequestIDEchoAndGenerate(t *testing.T) {
	srv := server.New(server.Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	req := server.RunRequest{Source: "def main():\n    print(1)\n", File: "id.ttr"}

	resp, body := parity.Post(t, ts.URL+"/run", req, map[string]string{"X-Request-ID": "client-abc-123"})
	if got := resp.Header.Get("X-Request-ID"); got != "client-abc-123" {
		t.Errorf("header echo = %q, want client-abc-123", got)
	}
	var rr server.RunResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.RequestID != "client-abc-123" {
		t.Errorf("body request_id = %q, want client-abc-123", rr.RequestID)
	}

	resp2, _ := parity.Post(t, ts.URL+"/run", req, nil)
	if got := resp2.Header.Get("X-Request-ID"); got == "" {
		t.Error("no generated request ID without a client one")
	}

	junk := strings.Repeat("x", 200)
	resp3, _ := parity.Post(t, ts.URL+"/run", req, map[string]string{"X-Request-ID": junk})
	if got := resp3.Header.Get("X-Request-ID"); got == junk || got == "" {
		t.Errorf("junk ID handling: header = %q, want a fresh generated ID", got)
	}
}

// TestRetryAfterJitterOn429: overload rejections carry a small jittered
// Retry-After so a rejected herd does not return in lockstep.
func TestRetryAfterJitterOn429(t *testing.T) {
	srv := server.New(server.Options{
		MaxInFlight:  1,
		MaxQueue:     1,
		QueueTimeout: 10 * time.Millisecond,
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	slow := server.RunRequest{Source: "def main():\n    sleep(200)\n    print(1)\n", File: "slow.ttr"}
	var wg sync.WaitGroup
	var got429 atomic.Int64
	for c := 0; c < 12; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			data, _ := json.Marshal(slow)
			resp, err := http.Post(ts.URL+"/run", "application/json", bytes.NewReader(data))
			if err != nil {
				t.Errorf("post: %v", err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode == http.StatusTooManyRequests {
				got429.Add(1)
				ra := resp.Header.Get("Retry-After")
				secs, err := strconv.Atoi(ra)
				if err != nil || secs < 1 || secs > 3 {
					t.Errorf("429 Retry-After = %q, want integer in [1,3]", ra)
				}
			}
		}()
	}
	wg.Wait()
	if got429.Load() == 0 {
		t.Fatal("overload produced no 429s")
	}
}
