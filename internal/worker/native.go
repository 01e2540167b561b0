package worker

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"

	"repro/internal/fault"
	"repro/internal/guard"
)

// NativeRunner executes promoted native artifacts — Tetra programs
// compiled via gogen and `go build` (internal/promote). Unlike pooled
// workers, native binaries are one-shot: gort's governor state, stdin
// reader and exit-on-error discipline are process-global, so each
// request gets a fresh process whose whole life is that request. That
// keeps the isolation story strictly stronger than the pool's — a
// crashing artifact takes down nothing but its own request's process —
// at the cost of a fork+exec per request (the benchmark's native.added_us),
// which promotion by request count pays for every hot program, whether or
// not its run is long enough to win that back. The verdict, measured for
// PR 21 (DESIGN.md §12 "Evidence"): the tier stays. It wins serve_heavy by
// roughly 2× (op_p50_ms 3.5–4.1 against 4.7–9.0 with -native-threshold 0),
// loses serve_hot by roughly 3× (1.5–3.9 against 0.57–0.62), and moving
// serve_hot to the pool costs +40 % rss_mb (65 against 46 MiB: four warm
// pool workers are resident where one-shot artifacts are not).
//
// The runner supervises its children as the pool does, through the same
// supervisor (child.go): one attempt deadline, one forensics call, and
// zero-orphan accounting (Stats().Reaped == Stats().Spawns after Close).
// A gort "runtime error:" exit is data; any other death is a crash. It has
// no circuit breaker of its own: the server demotes a program at its
// artifact's first crash, and promote pins it to the VM after MaxDemotions.
type NativeRunner struct {
	faults *fault.Injector
	sup    *supervisor
}

// NativeOptions configures a NativeRunner.
type NativeOptions struct {
	// Faults arms the native-tier injection point (fault.NativeKill).
	Faults *fault.Injector
	// Logf, when set, receives supervision events.
	Logf func(format string, args ...any)
}

// NewNativeRunner returns a runner ready to execute artifacts.
func NewNativeRunner(opts NativeOptions) *NativeRunner {
	return &NativeRunner{faults: opts.Faults, sup: newSupervisor("native", opts.Logf)}
}

// Stats snapshots the runner's process accounting.
func (r *NativeRunner) Stats() ProcStats { return r.sup.stats() }

// Run executes one request in a fresh process of the given artifact
// binary. A Tetra runtime error (gort exit status 1 with a "runtime
// error:" diagnostic) is data and comes back as a well-formed Response;
// any other death returns a *CrashedError of one attempt. Closing
// info.Stop kills the child (drain); a Run that Close interrupts returns
// ErrClosed.
func (r *NativeRunner) Run(bin string, req *Request, info RunInfo) (*Response, error) {
	cmd := exec.Command(bin)
	// Without WaitDelay, an artifact that leaked its stdout pipe to a
	// forked child would hold Wait (and this request's goroutine) hostage
	// until that child exits, long after the artifact itself was killed.
	cmd.WaitDelay = guard.DefaultGrace
	// The supervisor's own TETRA_* budgets, or an operator's stale exports,
	// must not reach the artifact: its budget is the request's.
	cmd.Env = req.Limits.Environ(os.Environ())
	cmd.Stdin = strings.NewReader(req.Stdin)
	var out bytes.Buffer
	cmd.Stdout = &out
	c, err := r.sup.start(cmd)
	switch {
	case errors.Is(err, ErrClosed):
		return nil, err
	case err != nil:
		return nil, r.sup.crashed(nil, 1, 1, req, info, fmt.Sprintf("artifact spawn failed: %v", err))
	}
	r.sup.runs.Add(1)

	// Chaos hook: murder the artifact mid-request to drive the
	// demotion path.
	if _, ok := r.faults.Fire(fault.NativeKill); ok {
		c.kill()
	}

	timeout := attemptDeadline(req.Limits)
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	start := time.Now()
	select {
	case <-c.dead:
	case <-timer.C:
		c.kill()
		<-c.dead
		return nil, r.sup.crashed(c, 1, 1, req, info,
			fmt.Sprintf("attempt deadline overrun (%s): artifact stuck", timeout))
	case <-info.Stop:
		c.kill()
		<-c.dead
		return nil, ErrCancelled
	}
	wall := time.Since(start)
	if c.shutdown.Load() {
		return nil, ErrClosed
	}

	resp := &Response{
		Seq:       req.Seq,
		Stdout:    out.String(),
		CacheHit:  true, // the artifact IS the cached compile
		RunMicros: wall.Microseconds(),
	}
	if c.err == nil {
		resp.OK = true
		return resp, nil
	}

	// Exit status 1 with a gort diagnostic is a Tetra runtime error —
	// the program failed, not the artifact. Anything else (signals,
	// other exit codes, Go runtime fatals) is a crash.
	var ee *exec.ExitError
	if errors.As(c.err, &ee) && ee.ExitCode() == 1 {
		if msg, ok := runtimeErrLine(c.stderr.Tail()); ok {
			resp.ErrStage = "runtime"
			resp.ErrMessage = msg
			return resp, nil
		}
	}
	return nil, r.sup.crashed(c, 1, 1, req, info, fmt.Sprintf("artifact died: %v", c.err))
}

// runtimeErrLine extracts the first "runtime error: ..." line from an
// artifact's stderr — the diagnostic Catch prints before exiting 1.
func runtimeErrLine(stderr string) (string, bool) {
	for _, line := range strings.Split(stderr, "\n") {
		if strings.HasPrefix(line, "runtime error:") {
			return strings.TrimSpace(line), true
		}
	}
	return "", false
}

// Close kills any still-running artifact processes and waits until all
// are reaped — zero orphans. A Run it interrupts returns ErrClosed.
func (r *NativeRunner) Close() { r.sup.close() }
