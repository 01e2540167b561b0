package worker

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"slices"
	"strings"
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
	cmd     *exec.Cmd
	pid     int
	ordinal int64 // its place among the supervisor's spawns, from 1
	stderr  *tailBuffer
	dead    chan struct{} // closed once the process is reaped
	err     error         // Wait's result; read only after dead is closed
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
	c.ordinal = s.spawns.Add(1)
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
// worker or a resident artifact. One caller at a time holds it (a lease
// from residents) and talks to it through roundTrip.
type proc struct {
	*child
	stdin   io.WriteCloser
	enc     *json.Encoder
	respCh  chan procResult
	seq     uint64
	retired atomic.Bool

	key  string // its argv, as residents keys it
	idle bool   // released and not leased since; under residents.mu
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
	wireReq.Seq, wireReq.Child = pr.seq, pr.ordinal

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

// leaseTimeout bounds a lease's wait for a release or for the restart
// backoff before it answers ErrExhausted: the caller's cue to degrade
// (the pool to in-process execution, the native tier to the pool)
// instead of queuing forever.
const leaseTimeout = 250 * time.Millisecond

// residents is the one lease over a supervisor's protocol children: at
// most max of them live, each keyed by its argv. The pool leases with one
// key, its worker command; the native runner with one per artifact.
// Nothing starts before a lease needs it, so a child that crashed or was
// retired is replaced only then. A crash or a failed start sets the
// earliest next start from the backoff at the current level and steps the
// level; a successful run resets it.
type residents struct {
	*supervisor
	env []string // extra environment for every child
	max int

	mu         sync.Mutex
	held       []*proc       // live children, leased or idle; idle ones in release order
	starting   int           // starts in flight, each holding a place
	freed      chan struct{} // closed, and replaced, when a place or an idle child frees up
	level      int64         // consecutive crashes and failed starts
	notBefore  time.Time     // no child starts before this
	idleDeaths atomic.Int64
}

func newResidents(tier string, env []string, max int, logf func(format string, args ...any)) *residents {
	return &residents{supervisor: newSupervisor(tier, logf), env: env, max: max, freed: make(chan struct{})}
}

// lease hands out a live child of argv: the most recently released idle
// one; else a new one, when fewer than max are live or the least recently
// released idle child of another key can be retired for it; else, after
// waiting up to leaseTimeout for a release or for the backoff to pass,
// ErrExhausted. It answers ErrExhausted at once when the backoff outlasts
// that wait and no child of argv is live to be released. A start's own
// error is returned as is.
func (s *residents) lease(argv []string) (*proc, error) {
	key := strings.Join(argv, "\x00")
	deadline := time.Now().Add(leaseTimeout)
	for {
		s.mu.Lock()
		pr, holds := s.idleLocked(key)
		if pr != nil {
			s.mu.Unlock()
			return pr, nil
		}
		now, wake := time.Now(), deadline
		room := len(s.held)+s.starting < s.max
		victim := slices.IndexFunc(s.held, func(pr *proc) bool { return pr.idle })
		if room || victim >= 0 {
			if !now.Before(s.notBefore) {
				if !room {
					s.held[victim].retire()
					s.held = slices.Delete(s.held, victim, victim+1)
				}
				return s.startLocked(key, argv)
			}
			if s.notBefore.After(deadline) && !holds {
				s.mu.Unlock()
				return nil, ErrExhausted
			}
			if s.notBefore.Before(wake) {
				wake = s.notBefore
			}
		}
		freed := s.freed
		s.mu.Unlock()
		if !now.Before(deadline) {
			return nil, ErrExhausted
		}
		timer := time.NewTimer(wake.Sub(now))
		select {
		case <-freed:
		case <-timer.C:
		case <-s.done:
			timer.Stop()
			return nil, ErrClosed
		}
		timer.Stop()
	}
}

// idleLocked takes the most recently released idle child of key, dropping
// any that died while idle, and reports whether a child of key is live.
func (s *residents) idleLocked(key string) (*proc, bool) {
	holds := false
	for i := len(s.held) - 1; i >= 0; i-- {
		pr := s.held[i]
		if pr.key != key {
			continue
		}
		if !pr.idle {
			holds = true
			continue
		}
		select {
		case <-pr.dead:
			s.held = slices.Delete(s.held, i, i+1)
			pr.retire()
			if !pr.shutdown.Load() {
				s.idleDeaths.Add(1)
				s.logf("%s died idle: pid=%d cmd=%s", s.tier, pr.pid, pr.cmd.Path)
				s.backoffLocked()
			}
		default:
			pr.idle = false
			return pr, true
		}
	}
	return nil, holds
}

// startLocked starts a leased child of key on a place it holds while fork
// and exec run with s.mu released, and returns with s.mu released.
func (s *residents) startLocked(key string, argv []string) (*proc, error) {
	s.starting++
	s.mu.Unlock()
	pr, err := s.startProc(argv, s.env)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.starting--
	if err != nil {
		if !errors.Is(err, ErrClosed) {
			s.backoffLocked()
		}
		s.signalLocked()
		return nil, err
	}
	pr.key = key
	s.held = append(s.held, pr)
	return pr, nil
}

// release returns pr, whose run succeeded, to the idle set, and resets the
// backoff level.
func (s *residents) release(pr *proc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.level = 0
	s.dropLocked(pr)
	pr.idle = true
	s.held = append(s.held, pr)
	s.signalLocked()
}

// retire kills leased pr, whose exchange failed with err (nil when only
// its program did), and frees its place. It reports whether that was a
// crash — neither info.Stop nor Close — which backs the next start off.
func (s *residents) retire(pr *proc, err error) bool {
	pr.retire()
	crashed := err != nil && !errors.Is(err, ErrCancelled) && !pr.shutdown.Load()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dropLocked(pr)
	if crashed {
		s.backoffLocked()
	}
	s.signalLocked()
	return crashed
}

func (s *residents) dropLocked(pr *proc) {
	if i := slices.Index(s.held, pr); i >= 0 {
		s.held = slices.Delete(s.held, i, i+1)
	}
}

func (s *residents) backoffLocked() {
	s.notBefore = time.Now().Add(startDelay(s.level))
	s.level++
}

// signalLocked wakes every waiting lease.
func (s *residents) signalLocked() {
	close(s.freed)
	s.freed = make(chan struct{})
}

func (s *residents) idle() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, pr := range s.held {
		if pr.idle {
			n++
		}
	}
	return n
}

// backoffBase and backoffMax bound the exponential restart backoff:
// consecutive crashes double the delay before the next start from base up
// to max.
const (
	backoffBase = 25 * time.Millisecond
	backoffMax  = 2 * time.Second
)

// startDelay is the backoff a start waits after a crash or a failed start;
// a variable so that a test can record the levels it is asked for.
var startDelay = backoffDelay

func backoffDelay(level int64) time.Duration {
	if level > 20 {
		level = 20
	}
	d := backoffBase << uint(level)
	if d > backoffMax || d <= 0 {
		d = backoffMax
	}
	// ±50% jitter: crashes tend to be correlated (same poisonous
	// program hitting several workers); identical delays would restart
	// and re-die in lockstep.
	half := int64(d) / 2
	if half > 0 {
		d = time.Duration(int64(d)/2 + rand.Int63n(int64(d)))
	}
	return d
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
