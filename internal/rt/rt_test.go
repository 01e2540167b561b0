package rt

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/guard"
	"repro/internal/sched"
	"repro/internal/token"
	"repro/internal/trace"
)

// These tests state the thread runtime's contract once, with plain Go
// closures standing in for an engine's bodies. The same properties are
// then checked end to end on the interpreter and the VM by the table in
// engines_test.go.

func at(line int) token.Pos { return token.Pos{File: "t.ttr", Line: line, Col: 1} }

// recorder is a tracer that keeps every event and lets any goroutine wait
// until a number of events of one kind have been emitted.
type recorder struct {
	mu     sync.Mutex
	cond   *sync.Cond
	events []trace.Event
	gaveUp bool
}

func newRecorder() *recorder {
	rc := &recorder{}
	rc.cond = sync.NewCond(&rc.mu)
	return rc
}

func (rc *recorder) Emit(e trace.Event) {
	rc.mu.Lock()
	rc.events = append(rc.events, e)
	rc.cond.Broadcast()
	rc.mu.Unlock()
}

func (rc *recorder) count(kind trace.Kind) int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.countLocked(kind)
}

func (rc *recorder) countLocked(kind trace.Kind) int {
	n := 0
	for _, e := range rc.events {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

// await blocks until n events of the kind have been emitted, and reports
// false if that takes longer than ten seconds.
func (rc *recorder) await(kind trace.Kind, n int) bool {
	timer := time.AfterFunc(10*time.Second, func() {
		rc.mu.Lock()
		rc.gaveUp = true
		rc.cond.Broadcast()
		rc.mu.Unlock()
	})
	defer timer.Stop()
	rc.mu.Lock()
	defer rc.mu.Unlock()
	for rc.countLocked(kind) < n && !rc.gaveUp {
		rc.cond.Wait()
	}
	return !rc.gaveUp
}

// bodies turns plain functions into the spawn description Parallel and
// Background take, every thread positioned at pos.
func bodies(pos token.Pos, fns ...func(t *Thread) error) (int, func(int) Spawn) {
	return len(fns), func(i int) Spawn {
		t := new(Thread)
		return Spawn{Pos: pos, Thread: t, Run: func() error { return fns[i](t) }}
	}
}

// runMain runs body as the main thread of r, failing the test if the run
// does not return.
func runMain(t *testing.T, r *Runtime, body func(main *Thread) error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		main := new(Thread)
		done <- r.Main(main, func() error { return body(main) })
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(20 * time.Second):
		t.Fatal("run did not return")
		return nil
	}
}

func TestLockContentionLosesNoUpdateAndNoWakeup(t *testing.T) {
	const threads, rounds = 100, 50
	r := New(Config{}, []string{"c"})
	count := 0 // guarded by lock 0 only: -race proves the mutual exclusion
	inc := func(th *Thread) error {
		for i := 0; i < rounds; i++ {
			if err := r.Lock(th, 0, at(1)); err != nil {
				return err
			}
			count++
			r.Unlock(th, 0, at(1))
		}
		return nil
	}
	fns := make([]func(*Thread) error, threads)
	for i := range fns {
		fns[i] = inc
	}
	err := runMain(t, r, func(main *Thread) error {
		n, spawn := bodies(at(1), fns...)
		return r.Parallel(main, n, spawn)
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != threads*rounds {
		t.Errorf("count = %d, want %d", count, threads*rounds)
	}
}

// parked runs a holder thread that takes lock 0 and keeps it until release
// is closed, and a waiter thread that parks on lock 0 at line 7. It
// returns once the waiter is parked; result delivers the run's error.
func parked(t *testing.T, r *Runtime, rc *recorder) (release chan struct{}, waiterErr, result chan error) {
	t.Helper()
	release = make(chan struct{})
	waiterErr = make(chan error, 1)
	result = make(chan error, 1)
	go func() {
		main := new(Thread)
		result <- r.Main(main, func() error {
			n, spawn := bodies(at(3),
				func(th *Thread) error {
					if err := r.Lock(th, 0, at(5)); err != nil {
						return err
					}
					<-release
					r.Unlock(th, 0, at(5))
					return nil
				},
				func(th *Thread) error {
					if !rc.await(trace.LockAcquire, 1) { // the holder has it
						return errors.New("holder never acquired")
					}
					err := r.Lock(th, 0, at(7))
					waiterErr <- err
					return err
				})
			return r.Parallel(main, n, spawn)
		})
	}()
	// LockWait is emitted under the table's mutex, which the waiter only
	// gives up by parking, so a wake sent after this cannot be missed.
	if !rc.await(trace.LockWait, 1) {
		t.Fatal("waiter never parked")
	}
	return release, waiterErr, result
}

func TestCancelWakesParkedWaiter(t *testing.T) {
	rc := newRecorder()
	r := New(Config{Tracer: rc}, []string{"a"})
	release, waiterErr, result := parked(t, r, rc)
	r.Cancel()
	if err := <-waiterErr; err != ErrStopped {
		t.Errorf("waiter returned %v, want ErrStopped", err)
	}
	close(release)
	if err := <-result; err == nil || err.Error() != "execution cancelled" {
		t.Errorf("run returned %v, want execution cancelled", err)
	}
}

func TestGovernorTripWakesParkedWaiter(t *testing.T) {
	rc := newRecorder()
	r := New(Config{Tracer: rc, Limits: guard.Limits{MaxSteps: 1}}, []string{"a"})
	g := r.Guard()
	release, waiterErr, result := parked(t, r, rc)
	g.StepN(nil, 2) // some other thread exhausts the step budget
	err := <-waiterErr
	if err == nil || !strings.HasPrefix(err.Error(), "t.ttr:7:1: runtime error: exceeded step budget (1)") {
		t.Errorf("waiter returned %v, want the step-budget error positioned at its lock statement", err)
	}
	close(release)
	if got := <-result; got != err {
		t.Errorf("run returned %v, want the waiter's error %v", got, err)
	}
}

func TestReleaseWakesParkedWaiter(t *testing.T) {
	rc := newRecorder()
	r := New(Config{Tracer: rc}, []string{"a"})
	release, waiterErr, result := parked(t, r, rc)
	close(release)
	if err := <-waiterErr; err != nil {
		t.Errorf("waiter returned %v after the owner released", err)
	}
	if err := <-result; err != nil {
		t.Errorf("run returned %v", err)
	}
}

// A thread that fails while it holds a lock never releases it: the failure
// itself has to let the waiters go.
func TestFailureOfTheOwnerWakesParkedWaiter(t *testing.T) {
	rc := newRecorder()
	r := New(Config{Tracer: rc}, []string{"a"})
	boom := errors.New("boom")
	err := runMain(t, r, func(main *Thread) error {
		n, spawn := bodies(at(3),
			func(th *Thread) error {
				if err := r.Lock(th, 0, at(5)); err != nil {
					return err
				}
				if !rc.await(trace.LockWait, 1) {
					return errors.New("waiter never parked")
				}
				return boom // dies holding the lock
			},
			func(th *Thread) error {
				if !rc.await(trace.LockAcquire, 1) {
					return errors.New("owner never acquired")
				}
				return r.Lock(th, 0, at(7))
			})
		return r.Parallel(main, n, spawn)
	})
	if err != boom {
		t.Errorf("run returned %v, want boom", err)
	}
}

func TestSelfWaitIsAnError(t *testing.T) {
	r := New(Config{}, []string{"a"})
	err := runMain(t, r, func(main *Thread) error {
		if err := r.Lock(main, 0, at(2)); err != nil {
			return err
		}
		return r.Lock(main, 0, at(3))
	})
	want := `t.ttr:3:1: runtime error: deadlock: thread 0 already holds lock "a" and would wait for itself`
	if err == nil || err.Error() != want {
		t.Errorf("err = %v\nwant  %s", err, want)
	}
}

// crossed makes two threads take locks a and b in opposite orders, each
// holding its first lock until the other has its own.
func crossed(r *Runtime, main *Thread) error {
	var first sync.WaitGroup
	first.Add(2)
	arm := func(mine, theirs int) func(*Thread) error {
		return func(th *Thread) error {
			if err := r.Lock(th, mine, at(10+mine)); err != nil {
				first.Done()
				return err
			}
			first.Done()
			first.Wait()
			if err := r.Lock(th, theirs, at(20+theirs)); err != nil {
				r.Unlock(th, mine, at(10+mine))
				return err
			}
			r.Unlock(th, theirs, at(20+theirs))
			r.Unlock(th, mine, at(10+mine))
			return nil
		}
	}
	n, spawn := bodies(at(9), arm(0, 1), arm(1, 0))
	return r.Parallel(main, n, spawn)
}

func TestCycleReportedWhenDetectionIsOn(t *testing.T) {
	r := New(Config{}, []string{"a", "b"})
	err := runMain(t, r, func(main *Thread) error { return crossed(r, main) })
	if err == nil || !strings.Contains(err.Error(), "deadlock detected: thread") ||
		!strings.Contains(err.Error(), `waits for lock "a" held by thread`) ||
		!strings.Contains(err.Error(), `waits for lock "b" held by thread`) {
		t.Errorf("err = %v, want a cycle report naming both locks", err)
	}
}

func TestNoCycleReportWhenDetectionIsOff(t *testing.T) {
	rc := newRecorder()
	r := New(Config{Tracer: rc, NoDeadlockDetection: true}, []string{"a", "b"})
	result := make(chan error, 1)
	go func() {
		main := new(Thread)
		result <- r.Main(main, func() error { return crossed(r, main) })
	}()
	if !rc.await(trace.LockWait, 2) { // both parked: a genuine deadlock
		t.Fatal("threads never parked")
	}
	select {
	case err := <-result:
		t.Fatalf("deadlocked run returned %v without detection", err)
	case <-time.After(50 * time.Millisecond): // still parked, as it must be
	}
	r.Cancel()
	if err := <-result; err == nil || err.Error() != "execution cancelled" {
		t.Errorf("run returned %v, want execution cancelled", err)
	}
}

// checkPaired asserts that every thread that started also ended and that
// the governor counts no thread as live any more.
func checkPaired(t *testing.T, rc *recorder, g *guard.Governor, wantThreads int) {
	t.Helper()
	if s, e := rc.count(trace.ThreadStart), rc.count(trace.ThreadEnd); s != wantThreads || e != wantThreads {
		t.Errorf("%d thread starts, %d thread ends, want %d of each", s, e, wantThreads)
	}
	if n := g.Live(); n != 0 {
		t.Errorf("governor still counts %d live thread(s)", n)
	}
}

func TestEveryThreadIsDoneOnSuccess(t *testing.T) {
	rc := newRecorder()
	r := New(Config{Tracer: rc, Limits: guard.Limits{MaxThreads: 10}, Sched: sched.Config{Workers: 3}}, nil)
	g := r.Guard()
	ok := func(*Thread) error { return nil }
	err := runMain(t, r, func(main *Thread) error {
		n, spawn := bodies(at(2), ok, ok, ok)
		if err := r.Parallel(main, n, spawn); err != nil {
			return err
		}
		if live := g.Live(); live != 1 {
			t.Errorf("%d live threads after the join, want only main", live)
		}
		if err := r.Background(main, n, spawn); err != nil {
			return err
		}
		return r.ParFor(main, 20, at(3), func() (*Thread, func(int) error) {
			return new(Thread), func(int) error { return nil }
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	checkPaired(t, rc, g, 1+3+3+20)
}

func TestEveryThreadIsDoneOnBodyError(t *testing.T) {
	rc := newRecorder()
	r := New(Config{Tracer: rc, Limits: guard.Limits{MaxThreads: 10}}, nil)
	g := r.Guard()
	boom := errors.New("boom")
	err := runMain(t, r, func(main *Thread) error {
		n, spawn := bodies(at(2),
			func(*Thread) error { return nil },
			func(*Thread) error { return boom },
			func(*Thread) error { return ErrStopped })
		return r.Parallel(main, n, spawn)
	})
	if err != boom {
		t.Errorf("run returned %v, want the failing body's error", err)
	}
	checkPaired(t, rc, g, 4)
}

func TestThreadBudgetRefusalIsPositionedAndAccounted(t *testing.T) {
	rc := newRecorder()
	r := New(Config{Tracer: rc, Limits: guard.Limits{MaxThreads: 3}}, nil) // main + 2
	g := r.Guard()
	var hold sync.WaitGroup
	hold.Add(1)
	wait := func(*Thread) error { hold.Wait(); return nil }
	var refusal error
	err := runMain(t, r, func(main *Thread) error {
		n, spawn := bodies(at(4), wait, wait, wait, wait)
		refusal = r.Background(main, n, spawn)
		hold.Done()
		return refusal
	})
	if err != refusal || err == nil ||
		!strings.HasPrefix(err.Error(), "t.ttr:4:1: runtime error: exceeded thread budget (3 live threads)") {
		t.Errorf("err = %v, want the refusal positioned at the spawn", err)
	}
	checkPaired(t, rc, g, 3)
}

func TestBackgroundJoinIsGraceBoundedAfterFailure(t *testing.T) {
	r := New(Config{Limits: guard.Limits{MaxThreads: 10}}, nil)
	r.grace = 20 * time.Millisecond
	stuck := make(chan struct{}) // a block no governor can interrupt
	defer close(stuck)
	boom := errors.New("boom")
	start := time.Now()
	err := runMain(t, r, func(main *Thread) error {
		n, spawn := bodies(at(2), func(*Thread) error { <-stuck; return nil })
		if err := r.Background(main, n, spawn); err != nil {
			return err
		}
		return boom
	})
	if err != boom {
		t.Errorf("run returned %v, want boom", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("join of a failed run took %v", d)
	}
}

func TestBackgroundIsJoinedWhenHealthy(t *testing.T) {
	r := New(Config{}, nil)
	var ran atomic.Bool
	err := runMain(t, r, func(main *Thread) error {
		n, spawn := bodies(at(2), func(*Thread) error {
			time.Sleep(20 * time.Millisecond)
			ran.Store(true)
			return nil
		})
		return r.Background(main, n, spawn)
	})
	if err != nil || !ran.Load() {
		t.Errorf("err = %v, background finished = %v", err, ran.Load())
	}
}

// TestParForChargesShortBodies: a body far shorter than guard.StepBatch
// must still exhaust a step budget, because the worker carries the pending
// count from one iteration to the next; and a governed loop registers one
// tally per worker goroutine, not one per iteration.
func TestParForChargesShortBodies(t *testing.T) {
	const workers, iterations = 4, 20000
	r := New(Config{Limits: guard.Limits{MaxSteps: 1000}, Sched: sched.Config{Workers: workers}}, nil)
	g := r.Guard()
	var mu sync.Mutex
	tallies := map[*guard.Tally]bool{}
	ids := map[int]bool{}
	var ran atomic.Int64
	err := runMain(t, r, func(main *Thread) error {
		return r.ParFor(main, iterations, at(4), func() (*Thread, func(int) error) {
			th := new(Thread)
			return th, func(int) error {
				ran.Add(1)
				mu.Lock()
				tallies[th.Tally] = true
				ids[th.ID] = true
				mu.Unlock()
				for step := 0; step < 3; step++ { // what an engine does per statement
					th.Pending++
					if th.Pending >= guard.StepBatch {
						if err := r.Flush(th, at(5)); err != nil {
							return err
						}
					}
				}
				return nil
			}
		})
	})
	if err == nil || !strings.HasPrefix(err.Error(), "t.ttr:5:1: runtime error: exceeded step budget (1000)") {
		t.Errorf("err = %v, want the step budget tripping inside the body", err)
	}
	if n := ran.Load(); n >= iterations {
		t.Errorf("all %d iterations ran under a 1000-step budget", n)
	}
	if len(tallies) > workers {
		t.Errorf("%d tallies registered for %d workers", len(tallies), workers)
	}
	if int64(len(ids)) != ran.Load() {
		t.Errorf("%d distinct thread ids over %d iterations", len(ids), ran.Load())
	}
	if n := g.Live(); n != 0 {
		t.Errorf("governor still counts %d live thread(s)", n)
	}
}

func TestParForStopsAtNextIterationAfterAnError(t *testing.T) {
	r := New(Config{Sched: sched.Config{Workers: 2, Grain: 1}}, nil)
	boom := errors.New("boom")
	var ran atomic.Int64
	err := runMain(t, r, func(main *Thread) error {
		return r.ParFor(main, 100000, at(1), func() (*Thread, func(int) error) {
			return new(Thread), func(i int) error {
				if ran.Add(1) == 10 {
					return boom
				}
				return nil
			}
		})
	})
	if err != boom {
		t.Errorf("run returned %v, want boom", err)
	}
	if n := ran.Load(); n > 1000 {
		t.Errorf("%d iterations ran after the failure", n)
	}
}

func TestWorkProfileRecordsEveryThread(t *testing.T) {
	r := New(Config{CountWork: true}, nil)
	err := runMain(t, r, func(main *Thread) error {
		main.Work = 7
		return r.ParFor(main, 3, at(1), func() (*Thread, func(int) error) {
			th := new(Thread)
			return th, func(i int) error { th.Work += int64(i + 1); return nil }
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, w := range r.WorkProfile() {
		if (w.ID == 0) != (w.Parent == -1) {
			t.Errorf("thread %d has parent %d", w.ID, w.Parent)
		}
		total += w.Work
	}
	if prof := r.WorkProfile(); len(prof) != 4 || total != 7+1+2+3 {
		t.Errorf("profile = %+v", prof)
	}
}
