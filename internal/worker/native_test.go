package worker_test

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/guard"
	"repro/internal/promote"
	"repro/internal/worker"
)

// buildArtifact compiles a Tetra program into a native binary via the
// promotion pipeline, skipping the test when no toolchain is available.
func buildArtifact(t *testing.T, file, src string) string {
	t.Helper()
	m := promote.New(promote.Config{Threshold: 1, BuildDir: t.TempDir(), Logf: t.Logf})
	if !m.Enabled() {
		t.Skip("no Go toolchain/module; native tier disabled")
	}
	defer m.Close()
	m.Observe(file, src)
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		if bin, ok := m.Artifact(file, src); ok {
			return bin
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("artifact never built; stats %+v", m.Stats())
	return ""
}

// scriptArtifact writes an executable shell script standing in for an
// artifact binary — the cheap way to drive crash/cancel paths.
func scriptArtifact(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "artifact.bin")
	if err := os.WriteFile(path, []byte("#!/bin/sh\n"+body+"\n"), 0o755); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestNativeRunSuccess(t *testing.T) {
	bin := buildArtifact(t, "answer.ttr", "def main():\n    print(6 * 7)\n")
	r := worker.NewNativeRunner(worker.NativeOptions{Logf: t.Logf})
	defer r.Close()

	resp, err := r.Run(bin, &worker.Request{Seq: 7, RequestID: "r1"}, worker.RunInfo{Hash: "h1"})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK || resp.Stdout != "42\n" || resp.Seq != 7 || !resp.CacheHit {
		t.Fatalf("bad response: %+v", resp)
	}
	// The process stays resident until Close, and Close reaps it.
	if st := r.Stats(); st.Runs != 1 || st.Crashes != 0 || st.Spawns != 1 || st.Live != 1 {
		t.Fatalf("stats: %+v", st)
	}
	r.Close()
	childrenOf(r.Stats(), nil).Check(t, "native runner")
}

func TestNativeStdinReachesProgram(t *testing.T) {
	bin := buildArtifact(t, "echo.ttr",
		"def main():\n    line = read_string()\n    print(\"got \", line)\n")
	r := worker.NewNativeRunner(worker.NativeOptions{Logf: t.Logf})
	defer r.Close()

	resp, err := r.Run(bin, &worker.Request{Stdin: "hello\n"}, worker.RunInfo{Hash: "h"})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK || resp.Stdout != "got hello\n" {
		t.Fatalf("bad response: %+v", resp)
	}
}

func TestNativeRuntimeErrorIsData(t *testing.T) {
	bin := buildArtifact(t, "oob.ttr", "def main():\n    a = [1]\n    print(a[5])\n")
	r := worker.NewNativeRunner(worker.NativeOptions{Logf: t.Logf})
	defer r.Close()

	resp, err := r.Run(bin, &worker.Request{RequestID: "r1"}, worker.RunInfo{Hash: "h1"})
	if err != nil {
		t.Fatalf("a Tetra runtime error must be data, got %v", err)
	}
	if resp.OK || resp.ErrStage != "runtime" || !strings.Contains(resp.ErrMessage, "runtime error:") {
		t.Fatalf("bad classification: %+v", resp)
	}
	if st := r.Stats(); st.Crashes != 0 {
		t.Fatalf("runtime error counted as a crash: %+v", st)
	}
}

// TestNativeEnvHygiene: a resident artifact inherits the supervisor's
// environment, but its budget is the request's Limits — in both
// directions: a hostile TETRA_* export neither limits an unlimited request
// nor loosens a limited one.
func TestNativeEnvHygiene(t *testing.T) {
	bin := buildArtifact(t, "loop.ttr",
		"def main():\n    i = 0\n    s = 0\n    while i < 500:\n        s = s + i\n        i = i + 1\n    print(s)\n")
	// A hostile supervisor env: 1 step would kill any loop instantly if
	// it leaked into the child.
	t.Setenv("TETRA_MAX_STEPS", "1")
	t.Setenv("TETRA_TIMEOUT", "1ns")

	r := worker.NewNativeRunner(worker.NativeOptions{Logf: t.Logf})
	defer r.Close()

	// Unlimited request: the supervisor's budgets must not leak in.
	resp, err := r.Run(bin, &worker.Request{}, worker.RunInfo{Hash: "a"})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK || resp.Stdout != "124750\n" {
		t.Fatalf("supervisor env leaked into artifact: %+v", resp)
	}

	// Tight request budget: it must reach the artifact and trip.
	resp, err = r.Run(bin, &worker.Request{Limits: guard.Limits{MaxSteps: 5}}, worker.RunInfo{Hash: "a"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || resp.ErrStage != "runtime" || !strings.Contains(resp.ErrMessage, "step budget") {
		t.Fatalf("request step budget not enforced in artifact: %+v", resp)
	}
	if st := r.Stats(); st.Crashes != 0 {
		t.Fatalf("budget trip misclassified as crash: %+v", st)
	}
}

func TestNativeCrashClassified(t *testing.T) {
	// Exit 1 with no "runtime error:" diagnostic is an artifact crash,
	// not program data: every one is reported, and none is remembered
	// against the hash — demotion is the caller's to decide.
	bin := scriptArtifact(t, "exit 1")
	var crashes []worker.Crash
	var mu sync.Mutex
	r := worker.NewNativeRunner(worker.NativeOptions{Logf: t.Logf})
	defer r.Close()

	info := worker.RunInfo{Hash: "hq", OnCrash: func(c worker.Crash) {
		mu.Lock()
		crashes = append(crashes, c)
		mu.Unlock()
	}}
	for i := 0; i < 2; i++ {
		_, err := r.Run(bin, &worker.Request{}, info)
		var ce *worker.CrashedError
		if !errors.As(err, &ce) {
			t.Fatalf("run %d: want CrashedError, got %v", i, err)
		}
	}
	mu.Lock()
	n := len(crashes)
	mu.Unlock()
	if n != 2 {
		t.Fatalf("OnCrash fired %d times, want 2", n)
	}
	st := r.Stats()
	if st.Crashes != 2 || st.Spawns != 2 || st.Reaped != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestNativeKillFaultDrivesCrash(t *testing.T) {
	bin := scriptArtifact(t, "sleep 30")
	inj := fault.New(1)
	inj.Set(fault.NativeKill, 1.0, 0)
	r := worker.NewNativeRunner(worker.NativeOptions{Faults: inj, Logf: t.Logf})
	defer r.Close()

	start := time.Now()
	_, err := r.Run(bin, &worker.Request{}, worker.RunInfo{Hash: "hk"})
	var ce *worker.CrashedError
	if !errors.As(err, &ce) {
		t.Fatalf("want CrashedError, got %v", err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("injected kill took %s — the sleep ran to term?", d)
	}
	if inj.Fired(fault.NativeKill) == 0 {
		t.Fatal("fault point never fired")
	}
	childrenOf(r.Stats(), nil).Check(t, "native runner")
}

func TestNativeStopCancelsRun(t *testing.T) {
	bin := scriptArtifact(t, "sleep 30")
	r := worker.NewNativeRunner(worker.NativeOptions{Logf: t.Logf})
	defer r.Close()

	stop := make(chan struct{})
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(stop)
	}()
	start := time.Now()
	_, err := r.Run(bin, &worker.Request{}, worker.RunInfo{Hash: "hs", Stop: stop})
	if !errors.Is(err, worker.ErrCancelled) {
		t.Fatalf("want ErrCancelled, got %v", err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("cancel took %s", d)
	}
	childrenOf(r.Stats(), nil).Check(t, "native runner")
}

func TestNativeDeadlineOverrunKillsStuckArtifact(t *testing.T) {
	bin := scriptArtifact(t, "sleep 30")
	r := worker.NewNativeRunner(worker.NativeOptions{Logf: t.Logf})
	defer r.Close()

	start := time.Now()
	_, err := r.Run(bin,
		&worker.Request{Limits: guard.Limits{Deadline: 100 * time.Millisecond}},
		worker.RunInfo{Hash: "hd"})
	var ce *worker.CrashedError
	if !errors.As(err, &ce) {
		t.Fatalf("want CrashedError, got %v", err)
	}
	if !strings.Contains(ce.LastReason, "deadline overrun") {
		t.Fatalf("reason %q", ce.LastReason)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("overrun kill took %s", d)
	}
	childrenOf(r.Stats(), nil).Check(t, "native runner")
}

func TestNativeSpawnFailureIsCrash(t *testing.T) {
	r := worker.NewNativeRunner(worker.NativeOptions{Logf: t.Logf})
	defer r.Close()
	_, err := r.Run(filepath.Join(t.TempDir(), "missing.bin"), &worker.Request{}, worker.RunInfo{Hash: "hm"})
	var ce *worker.CrashedError
	if !errors.As(err, &ce) {
		t.Fatalf("want CrashedError, got %v", err)
	}
	if st := r.Stats(); st.Crashes != 1 || st.Spawns != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestNativeRunnerClosedRejects(t *testing.T) {
	bin := scriptArtifact(t, "exit 0")
	r := worker.NewNativeRunner(worker.NativeOptions{Logf: t.Logf})
	r.Close()
	if _, err := r.Run(bin, &worker.Request{}, worker.RunInfo{}); !errors.Is(err, worker.ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}

// TestNativeCloseDuringRunsIsNotACrash: Close kills the artifacts of
// in-flight Runs and races Runs still waiting for theirs. Shutting down is
// not a crash: every Run in flight returns ErrClosed, none reports a
// crash, and every child is reaped.
func TestNativeCloseDuringRunsIsNotACrash(t *testing.T) {
	r := worker.NewNativeRunner(worker.NativeOptions{Logf: t.Logf})
	defer r.Close()

	var crashes atomic.Int64
	var bins []string
	info := worker.RunInfo{Hash: "hc", OnCrash: func(worker.Crash) { crashes.Add(1) }}
	// Every resident slot busy with its own artifact, and one more Run
	// waiting on each: a waiter whose lease times out before Close gets
	// ErrExhausted, any other ErrClosed.
	errs := make(chan error, 2*worker.MaxResident)
	var wg sync.WaitGroup
	for i := 0; i < cap(errs); i++ {
		if i < worker.MaxResident {
			bins = append(bins, scriptArtifact(t, "exec sleep 30"))
		}
		wg.Add(1)
		go func(bin string) {
			defer wg.Done()
			_, err := r.Run(bin, &worker.Request{}, info)
			errs <- err
		}(bins[i%worker.MaxResident])
	}
	for deadline := time.Now().Add(5 * time.Second); r.Stats().Runs < worker.MaxResident; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("artifacts never started: %+v", r.Stats())
		}
	}
	pids := recordedChildren(t)
	r.Close()
	wg.Wait()
	close(errs)
	closed := 0
	for err := range errs {
		switch {
		case errors.Is(err, worker.ErrClosed):
			closed++
		case !errors.Is(err, worker.ErrExhausted):
			t.Errorf("Run during Close: %v, want ErrClosed", err)
		}
	}
	if closed < worker.MaxResident {
		t.Errorf("%d Runs saw ErrClosed, want at least the %d in flight", closed, worker.MaxResident)
	}
	if st := r.Stats(); crashes.Load() != 0 || st.Crashes != 0 {
		t.Errorf("shutdown accounted as a crash: OnCrash %d, stats %+v", crashes.Load(), st)
	}
	childrenOf(r.Stats(), pids).Check(t, "native runner")
}

// residentCase is one artifact and the runs one resident process of it
// must answer in order.
type residentCase struct {
	name, src string
	runs      []residentRun
	// spawns is how many processes the runs take: 1, or 2 when a run
	// retires its process and the next one starts another.
	spawns int64
}

type residentRun struct {
	req  worker.Request
	ok   bool
	want string // stdout when ok, a substring of the error otherwise
}

// residentCases covers the per-run state a resident artifact resets.
var residentCases = []residentCase{
	{name: "stdin", spawns: 1,
		src: "def main():\n    n = read_int()\n    print(n * n)\n",
		runs: []residentRun{
			{worker.Request{Stdin: "3\n"}, true, "9\n"},
			{worker.Request{Stdin: "4\n"}, true, "16\n"},
			{worker.Request{Stdin: "5\n"}, true, "25\n"},
		}},
	// Each run prints 6 bytes under a 7-byte budget: a governor carried
	// over from the run before would trip on the second.
	{name: "output_budget", spawns: 1,
		src: "def main():\n    print(\"hello\")\n",
		runs: []residentRun{
			{worker.Request{Limits: guard.Limits{MaxOutputBytes: 7}}, true, "hello\n"},
			{worker.Request{Limits: guard.Limits{MaxOutputBytes: 7}}, true, "hello\n"},
			{worker.Request{Limits: guard.Limits{MaxOutputBytes: 7}}, true, "hello\n"},
		}},
	{name: "alloc_budget", spawns: 1,
		src: "def main():\n    a = [1 .. 10]\n    print(len(a))\n",
		runs: []residentRun{
			{worker.Request{Limits: guard.Limits{MaxAllocCells: 12}}, true, "10\n"},
			{worker.Request{Limits: guard.Limits{MaxAllocCells: 12}}, true, "10\n"},
			{worker.Request{Limits: guard.Limits{MaxAllocCells: 12}}, true, "10\n"},
		}},
	{name: "lock", spawns: 1,
		src: "def main():\n    total = 0\n    parallel for i in [1 .. 100]:\n        lock m:\n            total += i\n    print(total)\n",
		runs: []residentRun{
			{worker.Request{}, true, "5050\n"},
			{worker.Request{}, true, "5050\n"},
			{worker.Request{}, true, "5050\n"},
		}},
	// The background thread waits for main's gate, then prints after main
	// has returned: its line must be in its own run's reply, and only
	// there.
	{name: "background", spawns: 1,
		src: "def waiter():\n    lock gate:\n        sleep(20)\n        print(\"bg\")\n\n" +
			"def main():\n    lock gate:\n        background:\n            waiter()\n        print(\"main\")\n",
		runs: []residentRun{
			{worker.Request{}, true, "main\nbg\n"},
			{worker.Request{}, true, "main\nbg\n"},
			{worker.Request{}, true, "main\nbg\n"},
		}},
	// A budget trip is the program's failure, not a crash: it is answered,
	// and the next run starts a new process. The loop is longer than
	// guard.StepBatch, which steps are charged in, as on the engines.
	{name: "step_budget", spawns: 2,
		src: "def main():\n    s = 0\n    for i in [1 .. 200]:\n        s += i\n    print(s)\n",
		runs: []residentRun{
			{worker.Request{}, true, "20100\n"},
			{worker.Request{Limits: guard.Limits{MaxSteps: 5}}, false, "step budget"},
			{worker.Request{}, true, "20100\n"},
		}},
}

// TestNativeResidentState: one process answers every run of an artifact,
// each under its own input, output, governor, lock table and background
// join; then, on the same artifacts, at most MaxResident stay live, the
// least recently used idle one evicted.
func TestNativeResidentState(t *testing.T) {
	bins := make([]string, len(residentCases))
	for i, c := range residentCases {
		bins[i] = buildArtifact(t, c.name+".ttr", c.src)
	}
	r := worker.NewNativeRunner(worker.NativeOptions{Logf: t.Logf})
	defer r.Close()
	for i, c := range residentCases {
		t.Run(c.name, func(t *testing.T) {
			before := r.Stats()
			for j, run := range c.runs {
				req := run.req
				resp, err := r.Run(bins[i], &req, worker.RunInfo{Hash: c.name})
				if err != nil {
					t.Fatalf("run %d: %v", j, err)
				}
				got := resp.Stdout
				if !run.ok {
					got = resp.ErrMessage
				}
				if resp.OK != run.ok || !strings.Contains(got, run.want) || run.ok && got != run.want {
					t.Errorf("run %d: ok=%v stdout %q err %q, want ok=%v and %q", j, resp.OK, resp.Stdout, resp.ErrMessage, run.ok, run.want)
				}
			}
			st := r.Stats()
			if spawns := st.Spawns - before.Spawns; spawns != c.spawns || st.Crashes != 0 {
				t.Errorf("%d runs took %d process(es) and %d crash(es), want %d and 0", len(c.runs), spawns, st.Crashes, c.spawns)
			}
		})
	}

	t.Run("lru", func(t *testing.T) {
		k := worker.MaxResident
		if len(bins) < k+1 {
			t.Fatalf("%d artifacts cannot overflow %d resident slots", len(bins), k)
		}
		r := worker.NewNativeRunner(worker.NativeOptions{Logf: t.Logf})
		defer r.Close()
		spawnsAfter := func(i int) int64 {
			t.Helper()
			req := residentCases[i].runs[0].req
			if _, err := r.Run(bins[i], &req, worker.RunInfo{}); err != nil {
				t.Fatalf("artifact %d: %v", i, err)
			}
			return r.Stats().Spawns
		}
		for i := 0; i <= k; i++ {
			spawnsAfter(i) // the last evicts artifact 0
		}
		for i := 1; i <= k; i++ {
			if n := spawnsAfter(i); n != int64(k+1) {
				t.Fatalf("artifact %d was not resident: %d spawns, want %d", i, n, k+1)
			}
		}
		if n := spawnsAfter(0); n != int64(k+2) {
			t.Fatalf("evicted artifact 0 answered without a new process: %d spawns", n)
		}
		// Two residents were evicted, and the reaper counts each after Run
		// returns: wait until it has, then count who is live.
		st := r.Stats()
		for deadline := time.Now().Add(10 * time.Second); st.Reaped < 2 && time.Now().Before(deadline); st = r.Stats() {
			time.Sleep(time.Millisecond)
		}
		if st.Reaped != 2 || st.Live != k || st.Crashes != 0 {
			t.Fatalf("stats %+v, want the 2 evicted reaped, %d live and no crash", st, k)
		}
	})
}

// TestNativeConcurrentRunsOfOneArtifact: a request whose artifact is busy
// starts a second process of it instead of waiting for the first.
func TestNativeConcurrentRunsOfOneArtifact(t *testing.T) {
	bin := buildArtifact(t, "nap.ttr", "def main():\n    sleep(300)\n    print(\"up\")\n")
	r := worker.NewNativeRunner(worker.NativeOptions{Logf: t.Logf})
	defer r.Close()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := r.Run(bin, &worker.Request{}, worker.RunInfo{})
			if err != nil || !resp.OK || resp.Stdout != "up\n" {
				t.Errorf("concurrent run: %+v, %v", resp, err)
			}
		}()
	}
	wg.Wait()
	if st := r.Stats(); st.Spawns != 2 || st.Crashes != 0 {
		t.Errorf("two concurrent runs: %+v, want 2 spawns and no crash", st)
	}
}

// TestNativeRunMicrosIsTheRun: a reply's run_us is the artifact's own run
// of the program, not the process start the first request pays nor the
// round trip. Every run_us is under its measured round trip, and the first
// one lies below the midpoint between the first round trip, which includes
// the start, and the fastest reused one, which does not. Both sides of
// each comparison are timed on this host at this moment, so host load
// scales them together; a fixed bound in microseconds would not.
func TestNativeRunMicrosIsTheRun(t *testing.T) {
	bin := buildArtifact(t, "hot.ttr",
		"def main():\n    s = 0\n    for i in [1 .. 2000]:\n        s = (s + i * 7) % 1000003\n    print(s)\n")
	r := worker.NewNativeRunner(worker.NativeOptions{Logf: t.Logf})
	defer r.Close()
	var runUs [3]int64
	var rtts [3]time.Duration
	for i := range runUs {
		start := time.Now()
		resp, err := r.Run(bin, &worker.Request{}, worker.RunInfo{})
		rtts[i] = time.Since(start)
		if err != nil || !resp.OK {
			t.Fatalf("run %d: %+v, %v", i, resp, err)
		}
		runUs[i] = resp.RunMicros
		if runUs[i] >= rtts[i].Microseconds() {
			t.Errorf("run %d: run_us %d against a %s round trip", i, runUs[i], rtts[i])
		}
	}
	if mid := (rtts[0] + min(rtts[1], rtts[2])) / 2; runUs[0] >= mid.Microseconds() {
		t.Errorf("first run: run_us %d is not under %s, halfway from its %s round trip (process start included) to the fastest reused one %s",
			runUs[0], mid, rtts[0], min(rtts[1], rtts[2]))
	}
	if st := r.Stats(); st.Spawns != 1 {
		t.Errorf("three runs took %d processes", st.Spawns)
	}
}
