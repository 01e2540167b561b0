package worker

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/guard"
)

// attemptTimeout bounds an attempt, pooled or native, whose request carries
// no deadline of its own.
const attemptTimeout = 60 * time.Second

// attemptDeadline is how long a supervisor lets one attempt run before it
// declares the child stuck and kills it: the request's own deadline plus
// guard.DefaultGrace. The child's in-process governor trips first, and
// wakes every thread parked on a lock, unless the child cannot even report
// the trip: only such a child is the supervisor's kill.
func attemptDeadline(l guard.Limits) time.Duration {
	if l.Deadline > 0 {
		return l.Deadline + guard.DefaultGrace
	}
	return attemptTimeout
}

// ProcStats is a point-in-time snapshot of a supervisor's process
// accounting: attempts given to a child, children that crashed, children
// started and reaped, and children alive now (Reaped == Spawns and
// Live == 0 once the supervisor is closed — zero orphans).
type ProcStats struct {
	Runs    int64 `json:"runs"`
	Crashes int64 `json:"crashes"`
	Spawns  int64 `json:"spawns"`
	Reaped  int64 `json:"reaped"`
	Live    int   `json:"live"`
}

// child is one supervised OS process: started with a 2 KiB stderr tail,
// reaped by exactly one goroutine, killed on demand.
type child struct {
	cmd    *exec.Cmd
	pid    int
	stderr *tailBuffer
	dead   chan struct{} // closed once the process is reaped
	err    error         // Wait's result; read only after dead is closed
	// shutdown marks a child killed by its supervisor's close: to whoever
	// was using it, its death is ErrClosed, never a crash.
	shutdown atomic.Bool
}

func (c *child) kill() { _ = c.cmd.Process.Kill() }

// supervisor owns a set of live children and their counters. Both the
// pool and the native runner supervise through one: it starts, reaps,
// accounts and kills, and close kills and reaps every child it owns.
type supervisor struct {
	tier string // names the supervisor in crash log lines
	logf func(format string, args ...any)
	done chan struct{} // closed when close begins

	mu     sync.Mutex
	closed bool
	live   map[*child]struct{}
	wg     sync.WaitGroup // reapers and launched goroutines

	runs, crashes, spawns, reaped atomic.Int64
}

func newSupervisor(tier string, logf func(format string, args ...any)) *supervisor {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &supervisor{tier: tier, logf: logf, done: make(chan struct{}), live: make(map[*child]struct{})}
}

// start starts cmd with a stderr tail and returns the running child, its
// reaper started. No lock is held across fork and exec: the child joins the
// live set only once Start has returned, and a child that lost that race
// with close is killed and reaped before start returns ErrClosed. Any other
// error is Start's own.
func (s *supervisor) start(cmd *exec.Cmd) (*child, error) {
	select {
	case <-s.done:
		return nil, ErrClosed
	default:
	}
	c := &child{cmd: cmd, stderr: &tailBuffer{max: 2048}, dead: make(chan struct{})}
	cmd.Stderr = c.stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c.pid = cmd.Process.Pid
	s.spawns.Add(1)
	s.mu.Lock()
	lost := s.closed
	if !lost {
		s.live[c] = struct{}{}
		s.wg.Add(1)
	}
	s.mu.Unlock()
	if lost {
		c.shutdown.Store(true)
		c.kill()
		s.reap(c)
		return nil, ErrClosed
	}
	go func() {
		defer s.wg.Done()
		s.reap(c)
	}()
	return c, nil
}

// reap collects c's exit status, so no child ever zombies, and drops it
// from the live set.
func (s *supervisor) reap(c *child) {
	c.err = c.cmd.Wait()
	s.reaped.Add(1)
	s.mu.Lock()
	delete(s.live, c)
	s.mu.Unlock()
	close(c.dead)
}

// launch runs f on a goroutine close waits for, and reports false without
// running it once close has begun.
func (s *supervisor) launch(f func()) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		f()
	}()
	return true
}

// crashed accounts one child death the supervisor did not cause by
// closing — the crash counter, info.OnCrash and one log line naming the
// tier — and returns the error a caller whose retry budget is spent
// reports. c is nil when the process never started; otherwise its death
// gets up to 200 ms to be reaped, so the stderr tail holds the panic
// stack when it died screaming.
func (s *supervisor) crashed(c *child, attempt, attempts int, req *Request, info RunInfo, reason string) *CrashedError {
	pid, tail := 0, ""
	if c != nil {
		select {
		case <-c.dead:
		case <-time.After(200 * time.Millisecond):
		}
		pid, tail = c.pid, c.stderr.Tail()
	}
	s.crashes.Add(1)
	if info.OnCrash != nil {
		info.OnCrash(Crash{PID: pid, Attempt: attempt, Reason: reason, StderrTail: tail})
	}
	s.logf("%s crash: pid=%d attempt=%d/%d req=%s hash=%s reason=%q stderr_tail=%q",
		s.tier, pid, attempt, attempts, req.RequestID, info.Hash, reason, tail)
	return &CrashedError{Attempts: attempt, LastReason: reason}
}

// close kills every live child and returns once each is reaped and every
// launched goroutine has returned. It is idempotent.
func (s *supervisor) close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.done)
	}
	live := make([]*child, 0, len(s.live))
	for c := range s.live {
		live = append(live, c)
	}
	s.mu.Unlock()
	for _, c := range live {
		c.shutdown.Store(true)
		c.kill()
	}
	s.wg.Wait()
}

func (s *supervisor) stats() ProcStats {
	s.mu.Lock()
	live := len(s.live)
	s.mu.Unlock()
	return ProcStats{
		Runs:    s.runs.Load(),
		Crashes: s.crashes.Load(),
		Spawns:  s.spawns.Load(),
		Reaped:  s.reaped.Load(),
		Live:    live,
	}
}

// proc is a supervised child that speaks the wire protocol: a pooled
// worker or a resident artifact. One caller at a time holds it (the
// pool's or the runner's lease) and talks to it through roundTrip.
type proc struct {
	*child
	stdin   io.WriteCloser
	enc     *json.Encoder
	respCh  chan procResult
	seq     uint64
	retired atomic.Bool
}

type procResult struct {
	resp *Response
	err  error
}

// startProc starts argv as a protocol child — the inherited environment
// plus env plus EnvWorker=1 — with a reader goroutine decoding its
// replies. An error is Start's (or a pipe's), or ErrClosed.
func (s *supervisor) startProc(argv, env []string) (*proc, error) {
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Env = append(append(os.Environ(), env...), EnvWorker+"=1")
	// Without WaitDelay, a child that leaked its pipes to a forked
	// grandchild would hold Wait (and its reaper) hostage until that
	// grandchild exits, long after the child itself was killed.
	cmd.WaitDelay = guard.DefaultGrace
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	c, err := s.start(cmd)
	if err != nil {
		return nil, err
	}
	pr := &proc{child: c, stdin: stdin, enc: json.NewEncoder(stdin), respCh: make(chan procResult, 2)}
	// Reader: decode replies until the pipe dies, then report why.
	reading := s.launch(func() {
		dec := json.NewDecoder(stdout)
		for {
			var resp Response
			if err := dec.Decode(&resp); err != nil {
				if errors.Is(err, io.EOF) {
					err = fmt.Errorf("child exited (pipe EOF)")
				}
				select {
				case pr.respCh <- procResult{err: err}:
				default:
				}
				return
			}
			select {
			case pr.respCh <- procResult{resp: &resp}:
			default:
				// No leaseholder is listening (stale reply after a
				// timeout-kill); drop it.
			}
		}
	})
	if !reading {
		return nil, ErrClosed // close began after the start and has killed the child
	}
	return pr, nil
}

// roundTrip sends one request and waits for its matching reply,
// bounding both the pipe write (a dead child stops reading) and the
// whole exchange. Any error leaves the child unusable: the caller
// retires it.
func (pr *proc) roundTrip(req *Request, timeout time.Duration, stop <-chan struct{}) (*Response, error) {
	pr.seq++
	wireReq := *req
	wireReq.Seq = pr.seq

	timer := time.NewTimer(timeout)
	defer timer.Stop()

	writeErr := make(chan error, 1)
	go func() { writeErr <- pr.enc.Encode(&wireReq) }()

	for {
		select {
		case err := <-writeErr:
			if err != nil {
				return nil, fmt.Errorf("protocol write: %w", err)
			}
			writeErr = nil // sent; keep waiting for the reply
		case r := <-pr.respCh:
			if r.err != nil {
				return nil, fmt.Errorf("protocol read: %w", r.err)
			}
			if r.resp.Seq != wireReq.Seq {
				return nil, fmt.Errorf("protocol desync: reply seq %d, want %d", r.resp.Seq, wireReq.Seq)
			}
			r.resp.Seq = req.Seq
			return r.resp, nil
		case <-timer.C:
			return nil, fmt.Errorf("attempt deadline overrun (%s): child stuck or dead", timeout)
		case <-stop:
			return nil, ErrCancelled
		}
	}
}

// retire closes the child's request pipe and kills it, and reports
// whether this call was the one that did (it happens exactly once).
func (pr *proc) retire() bool {
	if !pr.retired.CompareAndSwap(false, true) {
		return false
	}
	_ = pr.stdin.Close()
	pr.kill()
	return true
}

// tailBuffer keeps the last max bytes written — a child's stderr tail,
// which is the panic stack when it dies screaming.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
	max int
}

func (t *tailBuffer) Write(b []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, b...)
	if len(t.buf) > t.max {
		t.buf = t.buf[len(t.buf)-t.max:]
	}
	return len(b), nil
}

func (t *tailBuffer) Tail() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}
