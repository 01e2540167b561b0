package worker_test

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/guard"
	"repro/internal/worker"
)

// TestMain lets this test binary serve as its own worker executable:
// the pool spawns os.Executable() with EnvWorker set, and the re-exec'd
// copy diverts into the worker loop before any test runs.
func TestMain(m *testing.M) {
	worker.ExitIfWorker()
	os.Exit(m.Run())
}

// selfPool builds a pool whose workers are this test binary.
func selfPool(t *testing.T, opts worker.Options) *worker.Pool {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	opts.Cmd = []string{exe}
	if opts.Logf == nil {
		opts.Logf = t.Logf
	}
	p := worker.NewPool(opts)
	t.Cleanup(p.Close)
	return p
}

func req(src, backend string) *worker.Request {
	return &worker.Request{
		Source:  src,
		File:    "t.ttr",
		Backend: backend,
		Opt:     2,
		Limits:  guard.Limits{}.WithSandboxDefaults(),
	}
}

func waitIdleWorkers(t *testing.T, p *worker.Pool, n int, wait time.Duration) {
	t.Helper()
	deadline := time.Now().Add(wait)
	for {
		if st := p.Stats(); st.Idle >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool never reached %d idle workers: %+v", n, p.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestPoolRoundTripBothBackends(t *testing.T) {
	p := selfPool(t, worker.Options{Size: 2})
	waitIdleWorkers(t, p, 2, 5*time.Second)

	for _, backend := range []string{"interp", "vm"} {
		resp, err := p.Run(req("def main():\n    print(6 * 7)\n", backend), worker.RunInfo{})
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		if !resp.OK || resp.Stdout != "42\n" {
			t.Errorf("%s: got %+v", backend, resp)
		}
	}
	// Second run of the same source hits the worker-local compile cache
	// (FIFO lease rotation means two workers share the load; run a few
	// times so every worker has seen it).
	var hit bool
	for i := 0; i < 6; i++ {
		resp, err := p.Run(req("def main():\n    print(6 * 7)\n", "vm"), worker.RunInfo{})
		if err != nil {
			t.Fatal(err)
		}
		hit = hit || resp.CacheHit
	}
	if !hit {
		t.Error("no run ever hit a worker-local compile cache")
	}
}

func TestPoolReportsProgramErrorsAsData(t *testing.T) {
	p := selfPool(t, worker.Options{Size: 1})
	waitIdleWorkers(t, p, 1, 5*time.Second)

	// Compile error.
	resp, err := p.Run(req("def main(:\n", "interp"), worker.RunInfo{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || resp.ErrStage != "compile" {
		t.Errorf("compile error: got %+v", resp)
	}
	// Runtime error, with a position.
	resp, err = p.Run(req("def main():\n    print(1 / 0)\n", "vm"), worker.RunInfo{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || resp.ErrStage != "runtime" || resp.ErrPos == "" {
		t.Errorf("runtime error: got %+v", resp)
	}
	// The worker survived both: a program error must not cost a process.
	if st := p.Stats(); st.Crashes != 0 || st.Spawns != 1 {
		t.Errorf("program errors crashed workers: %+v", st)
	}
}

func TestPoolRetriesAcrossCrashes(t *testing.T) {
	// Every worker dies after executing (reply dropped): with a retry
	// budget of 3 and a 50% kill rate, nearly all requests succeed.
	p := selfPool(t, worker.Options{
		Size:  2,
		Env:   []string{"TETRA_FAULTS=worker-exit=0.5"},
		Retry: worker.RetryPolicy{MaxAttempts: 4},
		// Disable quarantine: the whole point here is repeated crashes
		// of one hash.
		Quarantine: worker.QuarantinePolicy{Threshold: -1},
	})
	waitIdleWorkers(t, p, 2, 5*time.Second)

	var crashes atomic.Int64
	ok := 0
	for i := 0; i < 24; i++ {
		resp, err := p.Run(req("def main():\n    print(6 * 7)\n", "interp"), worker.RunInfo{
			Hash:    worker.HashProgram("t.ttr", "x", "interp", 0),
			OnCrash: func(worker.Crash) { crashes.Add(1) },
		})
		if err != nil {
			// A run can exhaust 4 attempts at p=0.5 (6% each) or catch
			// the pool mid-respawn; both are legitimate outcomes.
			t.Logf("run %d: %v", i, err)
			continue
		}
		if !resp.OK || resp.Stdout != "42\n" {
			t.Fatalf("run %d: bad response %+v", i, resp)
		}
		ok++
	}
	if ok < 12 {
		t.Errorf("only %d/24 runs succeeded through retries", ok)
	}
	if crashes.Load() == 0 {
		t.Error("fault injection produced no crashes")
	}
	st := p.Stats()
	if st.Crashes == 0 || st.Retries == 0 || st.RetriedOK == 0 {
		t.Errorf("retry machinery did not engage: %+v", st)
	}
	t.Logf("stats: %+v", st)
}

func TestPoolPanicCrashForensics(t *testing.T) {
	p := selfPool(t, worker.Options{
		Size:       1,
		Env:        []string{"TETRA_FAULTS=worker-panic=1"},
		Retry:      worker.RetryPolicy{MaxAttempts: 2},
		Quarantine: worker.QuarantinePolicy{Threshold: -1},
	})
	waitIdleWorkers(t, p, 1, 5*time.Second)

	var lastCrash worker.Crash
	_, err := p.Run(req("def main():\n    print(1)\n", "interp"), worker.RunInfo{
		OnCrash: func(c worker.Crash) { lastCrash = c },
	})
	var ce *worker.CrashedError
	if !errors.As(err, &ce) {
		t.Fatalf("want CrashedError, got %v", err)
	}
	if ce.Attempts != 2 {
		t.Errorf("attempts = %d, want 2", ce.Attempts)
	}
	if lastCrash.PID == 0 || !strings.Contains(lastCrash.StderrTail, "fault injected: worker panic") {
		t.Errorf("forensics missing panic stack: %+v", lastCrash)
	}
}

func TestPoolDeadlineOverrunKillsStuckWorker(t *testing.T) {
	// The worker stalls its reply for 30s; the request deadline is
	// 100ms plus a 200ms pipe margin, so the supervisor must declare it
	// stuck, kill it, and (with retries disabled) surface the crash.
	p := selfPool(t, worker.Options{
		Size:       1,
		Env:        []string{"TETRA_FAULTS=worker-delay=1:30s"},
		PipeMargin: 200 * time.Millisecond,
		Retry:      worker.RetryPolicy{MaxAttempts: 1},
		Quarantine: worker.QuarantinePolicy{Threshold: -1},
	})
	waitIdleWorkers(t, p, 1, 5*time.Second)

	r := req("def main():\n    print(1)\n", "interp")
	r.Limits.Deadline = 100 * time.Millisecond
	start := time.Now()
	_, err := p.Run(r, worker.RunInfo{})
	elapsed := time.Since(start)
	var ce *worker.CrashedError
	if !errors.As(err, &ce) || !strings.Contains(ce.LastReason, "deadline overrun") {
		t.Fatalf("want deadline-overrun CrashedError, got %v", err)
	}
	if elapsed > 3*time.Second {
		t.Errorf("overrun detection took %s; deadline+margin is 300ms", elapsed)
	}
}

func TestPoolPipeCorruptionDetected(t *testing.T) {
	p := selfPool(t, worker.Options{
		Size:       1,
		Env:        []string{"TETRA_FAULTS=pipe-truncate=1"},
		Retry:      worker.RetryPolicy{MaxAttempts: 1},
		Quarantine: worker.QuarantinePolicy{Threshold: -1},
	})
	waitIdleWorkers(t, p, 1, 5*time.Second)

	_, err := p.Run(req("def main():\n    print(1)\n", "interp"), worker.RunInfo{})
	var ce *worker.CrashedError
	if !errors.As(err, &ce) || !strings.Contains(ce.LastReason, "protocol read") {
		t.Fatalf("want protocol-read CrashedError, got %v", err)
	}
}

func TestPoolQuarantineCircuitBreaker(t *testing.T) {
	p := selfPool(t, worker.Options{
		Size:       1,
		Env:        []string{"TETRA_FAULTS=worker-panic=1"},
		Retry:      worker.RetryPolicy{MaxAttempts: 2},
		Quarantine: worker.QuarantinePolicy{Threshold: 2, Window: time.Minute, TTL: time.Minute},
	})
	waitIdleWorkers(t, p, 1, 5*time.Second)

	hash := worker.HashProgram("t.ttr", "poison", "interp", 0)
	// First call: both attempts crash; the second crash trips the
	// breaker, so the call itself reports quarantine.
	_, err := p.Run(req("def main():\n    print(1)\n", "interp"), worker.RunInfo{Hash: hash})
	var qe *worker.QuarantinedError
	if !errors.As(err, &qe) {
		t.Fatalf("want QuarantinedError after threshold crashes, got %v", err)
	}
	// Subsequent calls are rejected without burning a worker.
	crashesBefore := p.Stats().Crashes
	_, err = p.Run(req("def main():\n    print(1)\n", "interp"), worker.RunInfo{Hash: hash})
	if !errors.As(err, &qe) {
		t.Fatalf("want immediate QuarantinedError, got %v", err)
	}
	if qe.Remaining <= 0 {
		t.Errorf("quarantine remaining = %v, want > 0", qe.Remaining)
	}
	if got := p.Stats().Crashes; got != crashesBefore {
		t.Errorf("quarantined request still reached a worker (%d -> %d crashes)", crashesBefore, got)
	}
	if d, ok := p.Quarantined(hash); !ok || d <= 0 {
		t.Errorf("Quarantined(%s) = %v, %v", hash, d, ok)
	}
	if st := p.Stats(); st.Quarantined != 1 {
		t.Errorf("quarantined count = %d, want 1", st.Quarantined)
	}
}

func TestPoolExhaustedFailsFast(t *testing.T) {
	// A pool whose command cannot start never has idle workers; Run
	// must fail fast with ErrExhausted (the caller's cue to degrade),
	// not hang.
	p := worker.NewPool(worker.Options{
		Cmd:          []string{"/nonexistent-worker-binary"},
		Size:         1,
		LeaseTimeout: 100 * time.Millisecond,
	})
	defer p.Close()
	start := time.Now()
	_, err := p.Run(req("def main():\n    print(1)\n", "interp"), worker.RunInfo{})
	if err != worker.ErrExhausted {
		t.Fatalf("want ErrExhausted, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("exhaustion took %s", elapsed)
	}
	if st := p.Stats(); st.SpawnFailures == 0 {
		t.Errorf("no spawn failures recorded: %+v", st)
	}
}

func TestPoolCloseLeavesNoOrphansOrLeaks(t *testing.T) {
	baseline := settledGoroutines()
	var pids []int
	var mu sync.Mutex
	p := selfPool(t, worker.Options{
		Size: 4,
		Env:  []string{"TETRA_FAULTS=worker-exit=0.3"},
		Logf: func(format string, args ...any) {
			// Harvest pids from crash logs as a cross-check.
			mu.Lock()
			defer mu.Unlock()
			var pid int
			if n, _ := fmt.Sscanf(fmt.Sprintf(format, args...), "worker crash: pid=%d", &pid); n == 1 {
				pids = append(pids, pid)
			}
		},
	})
	waitIdleWorkers(t, p, 4, 5*time.Second)

	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				_, _ = p.Run(req("def main():\n    print(6 * 7)\n", "vm"), worker.RunInfo{})
			}
		}()
	}
	wg.Wait()
	p.Close()

	st := p.Stats()
	if st.Live != 0 {
		t.Errorf("live workers after Close: %d", st.Live)
	}
	if st.Reaped != st.Spawns {
		t.Errorf("reaped %d != spawned %d: orphan processes possible", st.Reaped, st.Spawns)
	}
	mu.Lock()
	for _, pid := range pids {
		if err := syscall.Kill(pid, 0); err == nil {
			t.Errorf("crashed worker pid %d still alive after Close", pid)
		}
	}
	mu.Unlock()
	if leaked := goroutinesAbove(baseline, 5*time.Second); leaked > 0 {
		t.Errorf("goroutine leak after Close: %d above baseline", leaked)
	}
}

func TestPoolCloseIsIdempotentAndRejects(t *testing.T) {
	p := selfPool(t, worker.Options{Size: 1})
	waitIdleWorkers(t, p, 1, 5*time.Second)
	p.Close()
	p.Close()
	if _, err := p.Run(req("def main():\n    print(1)\n", "interp"), worker.RunInfo{}); err != worker.ErrClosed {
		t.Errorf("Run on closed pool: %v, want ErrClosed", err)
	}
}

func TestPoolCancelStopsAttempt(t *testing.T) {
	p := selfPool(t, worker.Options{Size: 1})
	waitIdleWorkers(t, p, 1, 5*time.Second)

	stop := make(chan struct{})
	go func() {
		time.Sleep(100 * time.Millisecond)
		close(stop)
	}()
	r := req("def main():\n    sleep(5000)\n    print(1)\n", "interp")
	r.Limits.Deadline = 10 * time.Second
	start := time.Now()
	_, err := p.Run(r, worker.RunInfo{Stop: stop})
	if err != worker.ErrCancelled {
		t.Fatalf("want ErrCancelled, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("cancel took %s", elapsed)
	}
}

func TestHashProgramDistinguishesIdentity(t *testing.T) {
	base := worker.HashProgram("a.ttr", "src", "vm", 2)
	for _, other := range []string{
		worker.HashProgram("b.ttr", "src", "vm", 2),
		worker.HashProgram("a.ttr", "src2", "vm", 2),
		worker.HashProgram("a.ttr", "src", "interp", 2),
		worker.HashProgram("a.ttr", "src", "vm", 0),
	} {
		if other == base {
			t.Errorf("hash collision across identities")
		}
	}
	if worker.HashProgram("a.ttr", "src", "vm", 2) != base {
		t.Error("hash not deterministic")
	}
}

func settledGoroutines() int {
	runtime.GC()
	time.Sleep(50 * time.Millisecond)
	return runtime.NumGoroutine()
}

func goroutinesAbove(baseline int, wait time.Duration) int {
	deadline := time.Now().Add(wait)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseline+2 {
			return 0
		}
		if time.Now().After(deadline) {
			return n - baseline
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestExecuteRejectsUnknownBackend: an unrecognized backend must come
// back as a positioned request error, never silently fall back to a
// default engine.
func TestExecuteRejectsUnknownBackend(t *testing.T) {
	for _, backend := range []string{"native", "bogus"} {
		r := req("def main():\n    print(1)\n", backend)
		resp := worker.Execute(r, core.NewCompileCache(0))
		if resp.OK || resp.ErrStage != "request" {
			t.Errorf("backend %q: want request-stage error, got %+v", backend, resp)
		}
		if !strings.Contains(resp.ErrMessage, backend) {
			t.Errorf("backend %q: diagnostic %q does not name the backend", backend, resp.ErrMessage)
		}
	}
	// The documented names still work.
	for _, backend := range []string{"", "interp", "vm"} {
		resp := worker.Execute(req("def main():\n    print(1)\n", backend), core.NewCompileCache(0))
		if !resp.OK {
			t.Errorf("backend %q rejected: %+v", backend, resp)
		}
	}
}
