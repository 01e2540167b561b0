package debugger

import (
	"bytes"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ast"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/parser"
)

const stepTimeout = 5 * time.Second

func compile(t *testing.T, src string) *ast.Program {
	t.Helper()
	prog, err := parser.Parse("dbg.ttr", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := check.Check(prog); err != nil {
		t.Fatalf("check: %v", err)
	}
	return prog
}

// session starts a program under the debugger, stopped on entry.
func session(t *testing.T, src string, out *bytes.Buffer) *Engine {
	t.Helper()
	prog := compile(t, src)
	cfg := Config{StopOnEntry: true}
	cfg.Core = core.Config{Stdout: out}
	eng := Run(prog, cfg)
	if !eng.WaitPaused(0, stepTimeout) {
		t.Fatal("main thread never paused on entry")
	}
	return eng
}

func TestStopOnEntry(t *testing.T) {
	var out bytes.Buffer
	eng := session(t, "def main():\n    x = 1\n    print(x)\n", &out)
	threads := eng.Threads()
	if len(threads) != 1 {
		t.Fatalf("threads = %v", threads)
	}
	st := threads[0]
	if !st.Paused || st.Func != "main" || st.Pos.Line != 2 {
		t.Errorf("entry state = %+v", st)
	}
	if out.Len() != 0 {
		t.Errorf("output before any step: %q", out.String())
	}
	eng.ContinueAll()
	if err := eng.Wait(); err != nil {
		t.Fatal(err)
	}
	if out.String() != "1\n" {
		t.Errorf("output = %q", out.String())
	}
}

func TestStepAdvancesOneStatement(t *testing.T) {
	var out bytes.Buffer
	eng := session(t, "def main():\n    x = 1\n    y = 2\n    print(x + y)\n", &out)

	st, res := eng.StepAndWait(0, stepTimeout)
	if res != StepParked || !st.Paused || st.Pos.Line != 3 {
		t.Fatalf("after step 1: %+v", st)
	}
	st, _ = eng.StepAndWait(0, stepTimeout)
	if st.Pos.Line != 4 {
		t.Fatalf("after step 2: %+v", st)
	}
	if out.Len() != 0 {
		t.Error("print ran too early")
	}
	eng.ContinueAll()
	eng.Wait()
	if out.String() != "3\n" {
		t.Errorf("output = %q", out.String())
	}
}

func TestVarsInspection(t *testing.T) {
	var out bytes.Buffer
	eng := session(t, "def main():\n    x = 41\n    y = x + 1\n    print(y)\n", &out)
	eng.StepAndWait(0, stepTimeout) // executed x = 41
	names, vals, err := eng.Vars(0)
	if err != nil {
		t.Fatalf("vars unavailable: %v", err)
	}
	found := false
	for i, n := range names {
		if n == "x" {
			found = true
			if vals[i].Int() != 41 {
				t.Errorf("x = %v", vals[i])
			}
		}
	}
	if !found {
		t.Errorf("x not among %v", names)
	}
	eng.ContinueAll()
	eng.Wait()
}

// Vars answers only for a parked thread. A running one writes its frame
// without a lock, and a flat call's cells and record are reused once it
// returns, so reading them then was a data race (the race detector watches
// in CI) that could render a torn string.
func TestVarsAnswersOnlyForAParkedThread(t *testing.T) {
	var out bytes.Buffer
	eng := session(t, `def show(i int) string:
    return to_string(i)

def main():
    i = 0
    s = ""
    while i < 30000:
        s = show(i)
        i += 1
    print(s)
`, &out)
	if _, _, err := eng.Vars(7); err != ErrNoThread {
		t.Errorf("vars of an unknown thread: %v, want %v", err, ErrNoThread)
	}
	eng.ContinueAll()
	running := 0
	for polls := 0; !eng.Done(); polls++ {
		if polls == 50 {
			eng.PauseAll()
			if !eng.WaitPaused(0, stepTimeout) {
				t.Fatal("main never parked after PauseAll")
			}
			if names, _, err := eng.Vars(0); err != nil || len(names) == 0 {
				t.Errorf("vars of the parked thread: %v, %v", names, err)
			}
			eng.ContinueAll()
		}
		switch _, _, err := eng.Vars(0); err {
		case ErrRunning:
			running++
		case nil, ErrNoThread:
		default:
			t.Fatalf("vars of a running thread: %v", err)
		}
	}
	if running == 0 {
		t.Error("vars never saw the thread running")
	}
	if _, _, err := eng.Vars(0); err != ErrNoThread {
		t.Errorf("vars of a finished thread: %v, want %v", err, ErrNoThread)
	}
	if err := eng.Wait(); err != nil || out.String() != "29999\n" {
		t.Errorf("run: %q, %v", out.String(), err)
	}
}

func TestBreakpoint(t *testing.T) {
	var out bytes.Buffer
	src := `def main():
    a = 1
    b = 2
    c = 3
    print(a + b + c)
`
	eng := session(t, src, &out)
	eng.SetBreak(4) // line of c = 3
	if bp := eng.Breakpoints(); len(bp) != 1 || bp[0] != 4 {
		t.Errorf("breakpoints = %v", bp)
	}
	eng.Continue(0)
	if !eng.WaitPaused(0, stepTimeout) {
		t.Fatal("never hit breakpoint")
	}
	st, _ := eng.Thread(0)
	if st.Pos.Line != 4 {
		t.Errorf("stopped at line %d, want 4", st.Pos.Line)
	}
	names, vals, _ := eng.Vars(0)
	got := map[string]int64{}
	for i, n := range names {
		got[n] = vals[i].Int()
	}
	if got["a"] != 1 || got["b"] != 2 || got["c"] != 0 {
		t.Errorf("vars at breakpoint = %v", got)
	}
	eng.ClearBreak(4)
	eng.ContinueAll()
	if err := eng.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestFigure4DebuggerSession reproduces the IDE capability of Figure IV:
// two threads running the same code, stepped independently — one driven
// into the lock while the other stays parked at its first statement.
func TestFigure4DebuggerSession(t *testing.T) {
	var out bytes.Buffer
	src := `def work(k int) int:
    lock m:
        v = k * 2
    return v

def main():
    parallel:
        a = work(1)
        b = work(2)
    print(a + b)
`
	eng := session(t, src, &out)

	// Step main over the parallel statement: main blocks in the join while
	// the two child threads appear, each parked at its first statement.
	eng.Step(0)
	if got := eng.WaitAnyPaused(2, stepTimeout); got < 2 {
		t.Fatalf("expected 2 paused workers, have %d:\n%s", got, Render(eng.Threads()))
	}

	threads := eng.Threads()
	var workers []int
	for _, st := range threads {
		if st.ID != 0 {
			workers = append(workers, st.ID)
			if !st.Paused {
				t.Errorf("worker t%d not paused: %+v", st.ID, st)
			}
		}
	}
	if len(workers) != 2 {
		t.Fatalf("workers = %v", workers)
	}

	// main is blocked in the join, not parked, and its variables can still
	// be read: they are the locked cells the workers write.
	mainVars := func() map[string]int64 {
		t.Helper()
		names, vals, err := eng.Vars(0)
		if err != nil {
			t.Fatalf("vars of main in the join: %v", err)
		}
		got := map[string]int64{}
		for i, n := range names {
			got[n] = vals[i].Int()
		}
		return got
	}
	if got := mainVars(); got["a"] != 0 || got["b"] != 0 {
		t.Errorf("main's vars before any worker ran = %v", got)
	}

	// Drive the first worker through its whole call while the second stays
	// parked at its first statement: independent per-thread stepping.
	first, second := workers[0], workers[1]
	secondBefore, _ := eng.Thread(second)
	for i := 0; i < 20; i++ {
		st, res := eng.StepAndWait(first, stepTimeout)
		if res != StepParked || st.Finished {
			break
		}
	}
	if got := mainVars(); got["a"]+got["b"] != 2 && got["a"]+got["b"] != 4 {
		t.Errorf("main's vars after one worker finished = %v, want one of a = 2, b = 4", got)
	}
	secondAfter, _ := eng.Thread(second)
	if secondAfter.Finished {
		t.Error("parked thread ran to completion while only stepping the other")
	}
	if secondBefore.Pos != secondAfter.Pos {
		t.Errorf("parked thread moved: %v → %v", secondBefore.Pos, secondAfter.Pos)
	}

	eng.ContinueAll()
	if err := eng.Wait(); err != nil {
		t.Fatal(err)
	}
	if out.String() != "6\n" {
		t.Errorf("output = %q", out.String())
	}
}

func TestNextStepsOverCall(t *testing.T) {
	var out bytes.Buffer
	src := `def inner(x int) int:
    y = x + 1
    return y

def main():
    v = inner(5)
    w = v + 1
    print(w)
`
	eng := session(t, src, &out)
	// Entry pause is at `v = inner(5)`. Next must complete the call and
	// land on `w = v + 1`, never pausing inside inner.
	st, res := eng.NextAndWait(0, stepTimeout)
	if res != StepParked {
		t.Fatalf("NextAndWait = %v", res)
	}
	if st.Func != "main" || st.Pos.Line != 7 {
		t.Fatalf("after next: %+v (want main line 7)", st)
	}
	names, vals, _ := eng.Vars(0)
	for i, n := range names {
		if n == "v" && vals[i].Int() != 6 {
			t.Errorf("v = %v after stepping over inner", vals[i])
		}
	}
	eng.ContinueAll()
	eng.Wait()
	if out.String() != "7\n" {
		t.Errorf("output = %q", out.String())
	}
}

func TestNextStopsAtBreakpointInsideCall(t *testing.T) {
	var out bytes.Buffer
	src := `def inner(x int) int:
    y = x + 1
    return y

def main():
    v = inner(5)
    print(v)
`
	eng := session(t, src, &out)
	eng.SetBreak(3) // `return y` inside inner
	st, res := eng.NextAndWait(0, stepTimeout)
	if res != StepParked {
		t.Fatalf("NextAndWait = %v", res)
	}
	if st.Func != "inner" || st.Pos.Line != 3 {
		t.Fatalf("next skipped a breakpoint: %+v", st)
	}
	eng.ContinueAll()
	eng.Wait()
}

func TestStepIntoCall(t *testing.T) {
	var out bytes.Buffer
	src := `def inner(x int) int:
    return x + 1

def main():
    v = inner(5)
    print(v)
`
	eng := session(t, src, &out)
	// Step 1: executes `v = inner(5)` — but first the hook fires inside
	// inner at `return x + 1`.
	st, _ := eng.StepAndWait(0, stepTimeout)
	if st.Func != "inner" {
		t.Errorf("expected to land inside inner, got %+v", st)
	}
	eng.ContinueAll()
	eng.Wait()
	if out.String() != "6\n" {
		t.Errorf("output = %q", out.String())
	}
}

func TestPauseAllCatchesRunningThread(t *testing.T) {
	var out bytes.Buffer
	src := `def main():
    i = 0
    while i < 300000:
        i += 1
    print(i)
`
	eng := session(t, src, &out)
	eng.ContinueAll()
	eng.PauseAll()
	if !eng.WaitPaused(0, stepTimeout) {
		if eng.Done() {
			t.Skip("loop finished before pause landed (very fast host)")
		}
		t.Fatal("PauseAll never parked the thread")
	}
	st, _ := eng.Thread(0)
	if !st.Paused {
		t.Errorf("state = %+v", st)
	}
	eng.ContinueAll()
	eng.Wait()
}

func TestFinishedThreadRejectsCommands(t *testing.T) {
	var out bytes.Buffer
	eng := session(t, "def main():\n    print(1)\n", &out)
	eng.ContinueAll()
	if err := eng.Wait(); err != nil {
		t.Fatal(err)
	}
	if eng.Step(0) {
		t.Error("Step on finished thread should report false")
	}
	if _, res := eng.StepAndWait(0, time.Second); res != StepNoThread {
		t.Errorf("StepAndWait on finished thread = %v, want no-thread", res)
	}
	if eng.Step(42) {
		t.Error("Step on unknown thread should report false")
	}
}

func TestRuntimeErrorSurfacedThroughWait(t *testing.T) {
	var out bytes.Buffer
	eng := session(t, "def main():\n    a = [1]\n    print(a[9])\n", &out)
	eng.ContinueAll()
	err := eng.Wait()
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("err = %v", err)
	}
}

func TestRenderTable(t *testing.T) {
	threads := []ThreadState{
		{ID: 0, Func: "main", Paused: true, Stmt: "x = 1"},
		{ID: 1, Func: "work", Finished: true},
	}
	text := Render(threads)
	if !strings.Contains(text, "t0") || !strings.Contains(text, "paused") ||
		!strings.Contains(text, "finished") || !strings.Contains(text, "x = 1") {
		t.Errorf("render = %q", text)
	}
}

// blockingReader blocks every Read until unblocked, simulating a student
// program waiting on input that never arrives.
type blockingReader struct{ ch chan struct{} }

func (b *blockingReader) Read(p []byte) (int, error) {
	<-b.ch
	return 0, io.EOF
}

func TestStepWaitTimeoutIsDistinct(t *testing.T) {
	// The stepped statement blocks forever on input: StepAndWait must
	// report StepTimeout, never StepParked with a stale state (the old API
	// returned (state, true) on deadline expiry, indistinguishable from a
	// successful park).
	var out bytes.Buffer
	src := "def main():\n    x = read_int()\n    print(x)\n"
	prog := compile(t, src)
	in := &blockingReader{ch: make(chan struct{})}
	cfg := Config{StopOnEntry: true}
	cfg.Core = core.Config{Stdin: in, Stdout: &out}
	eng := Run(prog, cfg)
	if !eng.WaitPaused(0, stepTimeout) {
		t.Fatal("never paused on entry")
	}
	st, res := eng.StepAndWait(0, 150*time.Millisecond)
	if res != StepTimeout {
		t.Fatalf("StepAndWait on a blocked statement = %v (state %+v), want timeout", res, st)
	}
	if st.Finished {
		t.Errorf("timeout state claims the thread finished: %+v", st)
	}
	close(in.ch) // unblock the read; read_int errors out and the run ends
	eng.Wait()
}

func TestFinishedThreadContractUniform(t *testing.T) {
	// Step, Next, Continue and Pause share one finished-thread gate: all
	// of them must reject a finished thread and an unknown id alike.
	var out bytes.Buffer
	eng := session(t, "def main():\n    print(1)\n", &out)
	eng.ContinueAll()
	if err := eng.Wait(); err != nil {
		t.Fatal(err)
	}
	for name, cmd := range map[string]func(int) bool{
		"Step":     eng.Step,
		"Next":     eng.Next,
		"Continue": eng.Continue,
		"Pause":    eng.Pause,
	} {
		if cmd(0) {
			t.Errorf("%s on finished thread reported true", name)
		}
		if cmd(42) {
			t.Errorf("%s on unknown thread reported true", name)
		}
	}
	if _, res := eng.NextAndWait(0, time.Second); res != StepNoThread {
		t.Errorf("NextAndWait on finished thread = %v, want no-thread", res)
	}
}

func TestKillAbortsParkedSession(t *testing.T) {
	// Kill must end a session whose threads are parked in the hook: the
	// parked threads wake, observe the cancellation and unwind, so Wait
	// returns promptly — the liveness property eviction and drain rely on.
	var out bytes.Buffer
	eng := session(t, "def main():\n    x = 1\n    print(x)\n", &out)
	done := make(chan error, 1)
	go func() { done <- eng.Wait() }()
	eng.Kill()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "cancelled") {
			t.Errorf("Wait after Kill = %v, want cancellation", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait hung after Kill: parked threads never released")
	}
	if out.Len() != 0 {
		t.Errorf("killed session still produced output %q", out.String())
	}
}

func TestOnParkHookObservesPauses(t *testing.T) {
	var out bytes.Buffer
	var mu sync.Mutex
	var parks []ThreadState
	prog := compile(t, "def main():\n    x = 1\n    y = 2\n    print(x + y)\n")
	cfg := Config{StopOnEntry: true, OnPark: func(st ThreadState) {
		mu.Lock()
		parks = append(parks, st)
		mu.Unlock()
	}}
	cfg.Core = core.Config{Stdout: &out}
	eng := Run(prog, cfg)
	if !eng.WaitPaused(0, stepTimeout) {
		t.Fatal("never paused on entry")
	}
	eng.StepAndWait(0, stepTimeout)
	eng.ContinueAll()
	eng.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(parks) < 2 {
		t.Fatalf("OnPark fired %d times, want >= 2 (entry + one step)", len(parks))
	}
	for _, st := range parks {
		if !st.Paused {
			t.Errorf("OnPark delivered a non-paused state: %+v", st)
		}
	}
}
