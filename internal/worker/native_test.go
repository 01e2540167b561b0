package worker_test

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
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
	if !resp.OK || resp.Stdout != "42\n" || resp.Seq != 7 {
		t.Fatalf("bad response: %+v", resp)
	}
	st := r.Stats()
	if st.Runs != 1 || st.Crashes != 0 || st.Spawns != 1 || st.Reaped != 1 {
		t.Fatalf("stats: %+v", st)
	}
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

// TestNativeEnvHygiene is the serving-path bug the audit found: a native
// child inherits the supervisor's environment, so supervisor-level
// TETRA_* budgets must be stripped and re-derived from the request's
// clamped limits — in both directions.
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

	// Tight request budget: it must be derived into the child and trip.
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
		var ne *worker.NativeCrashError
		if !errors.As(err, &ne) {
			t.Fatalf("run %d: want NativeCrashError, got %v", i, err)
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
	var ne *worker.NativeCrashError
	if !errors.As(err, &ne) {
		t.Fatalf("want NativeCrashError, got %v", err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("injected kill took %s — the sleep ran to term?", d)
	}
	if inj.Fired(fault.NativeKill) == 0 {
		t.Fatal("fault point never fired")
	}
	if st := r.Stats(); st.Reaped != st.Spawns {
		t.Fatalf("killed artifact not reaped: %+v", st)
	}
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
	if st := r.Stats(); st.Reaped != st.Spawns {
		t.Fatalf("cancelled artifact not reaped: %+v", st)
	}
}

func TestNativeDeadlineOverrunKillsStuckArtifact(t *testing.T) {
	bin := scriptArtifact(t, "sleep 30")
	r := worker.NewNativeRunner(worker.NativeOptions{PipeMargin: 200 * time.Millisecond, Logf: t.Logf})
	defer r.Close()

	start := time.Now()
	_, err := r.Run(bin,
		&worker.Request{Limits: guard.Limits{Deadline: 100 * time.Millisecond}},
		worker.RunInfo{Hash: "hd"})
	var ne *worker.NativeCrashError
	if !errors.As(err, &ne) {
		t.Fatalf("want NativeCrashError, got %v", err)
	}
	if !strings.Contains(ne.Reason, "deadline overrun") {
		t.Fatalf("reason %q", ne.Reason)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("overrun kill took %s", d)
	}
	if st := r.Stats(); st.Reaped != st.Spawns {
		t.Fatalf("stuck artifact not reaped: %+v", st)
	}
}

func TestNativeSpawnFailureIsCrash(t *testing.T) {
	r := worker.NewNativeRunner(worker.NativeOptions{Logf: t.Logf})
	defer r.Close()
	_, err := r.Run(filepath.Join(t.TempDir(), "missing.bin"), &worker.Request{}, worker.RunInfo{Hash: "hm"})
	var ne *worker.NativeCrashError
	if !errors.As(err, &ne) {
		t.Fatalf("want NativeCrashError, got %v", err)
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
