package worker

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"sync"
	"sync/atomic"
	"time"
)

// RetryPolicy bounds how many workers one request may consume. Every
// /run execution is hermetic — stdin arrives as a string, stdout is
// captured, nothing escapes the sandbox — so a request whose worker
// died can be replayed on a fresh worker without observable
// side effects. MaxAttempts caps that replay so a worker-killing
// program cannot burn the pool down one retry at a time.
type RetryPolicy struct {
	// MaxAttempts is the total execution attempts per request (1 = no
	// retry). 0 selects the default of 3.
	MaxAttempts int
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	return p
}

// Options configures a Pool.
type Options struct {
	// Cmd is the argv spawning one worker process (required). The pool
	// additionally sets EnvWorker=1 in the child's environment, so a
	// host binary may serve as its own worker via ExitIfWorker.
	Cmd []string
	// Env is extra environment entries for workers (e.g. a TETRA_FAULTS
	// spec for the chaos suites).
	Env []string
	// Size is the number of pre-forked workers (default 2).
	Size int
	// LeaseTimeout bounds the wait for an idle worker before Run gives
	// up with ErrExhausted — the caller's cue to fall back to degraded
	// in-process execution instead of queuing forever. Default 250ms.
	LeaseTimeout time.Duration
	// PipeMargin is wall-clock grace added to the request's own
	// deadline before the supervisor declares the worker stuck and
	// kills it (default 2s). The worker's in-process governor should
	// always trip first; this margin only fires when the worker cannot
	// even report the trip.
	PipeMargin time.Duration
	// Retry bounds attempts per request; Quarantine trips repeatedly
	// crashing programs.
	Retry      RetryPolicy
	Quarantine QuarantinePolicy
	// Logf, when set, receives supervision events (spawn failures,
	// crash forensics).
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Size <= 0 {
		o.Size = 2
	}
	if o.LeaseTimeout <= 0 {
		o.LeaseTimeout = 250 * time.Millisecond
	}
	if o.PipeMargin <= 0 {
		o.PipeMargin = 2 * time.Second
	}
	o.Retry = o.Retry.withDefaults()
	return o
}

// Sentinel errors Run answers with. CrashedError and QuarantinedError
// carry detail.
var (
	// ErrExhausted: no idle worker within LeaseTimeout. The caller
	// should degrade to in-process execution.
	ErrExhausted = errors.New("worker pool exhausted")
	// ErrClosed: the pool has been shut down.
	ErrClosed = errors.New("worker pool closed")
	// ErrCancelled: the caller's stop channel fired mid-attempt (drain).
	ErrCancelled = errors.New("execution cancelled")
)

// QuarantinedError: the program hash is circuit-broken after repeatedly
// killing workers.
type QuarantinedError struct {
	Hash      string
	Remaining time.Duration
}

func (e *QuarantinedError) Error() string {
	return fmt.Sprintf("program quarantined after repeatedly crashing execution workers (hash %s, %s remaining)",
		e.Hash, e.Remaining.Round(time.Second))
}

// CrashedError: every attempt crashed its worker and the retry budget
// is spent.
type CrashedError struct {
	Attempts   int
	LastReason string
}

func (e *CrashedError) Error() string {
	return fmt.Sprintf("execution crashed %d worker(s); last: %s", e.Attempts, e.LastReason)
}

// Crash is one worker-death forensics record, delivered to RunInfo.OnCrash.
type Crash struct {
	PID        int
	Attempt    int
	Reason     string
	StderrTail string
}

// RunInfo is the per-call context for Pool.Run.
type RunInfo struct {
	// Hash is the quarantine key (HashProgram); empty skips quarantine
	// accounting.
	Hash string
	// Stop, when closed, cancels the attempt (the worker is killed —
	// it is mid-request and cannot be reused).
	Stop <-chan struct{}
	// OnCrash receives forensics for every worker this call killed.
	OnCrash func(Crash)
}

// Stats is a point-in-time snapshot of the pool counters.
type Stats struct {
	Spawns        int64 `json:"spawns"`
	SpawnFailures int64 `json:"spawn_failures"`
	Crashes       int64 `json:"crashes"`
	IdleDeaths    int64 `json:"idle_deaths"`
	Retries       int64 `json:"retries"`
	RetriedOK     int64 `json:"retried_ok"`
	Runs          int64 `json:"runs"`
	Reaped        int64 `json:"reaped"`
	Live          int   `json:"live"`
	Idle          int   `json:"idle"`
	Quarantined   int   `json:"quarantined"`
}

// Pool is the worker supervisor. Create with NewPool; safe for
// concurrent use. Close kills and reaps every worker.
type Pool struct {
	opts Options
	quar *quarantine

	idle    chan *proc
	closeCh chan struct{}

	mu     sync.Mutex
	closed bool
	live   map[*proc]struct{}

	backoffLevel atomic.Int64
	wg           sync.WaitGroup

	spawns, spawnFails, crashes, idleDeaths atomic.Int64
	retries, retriedOK, runs, reaped        atomic.Int64
}

// NewPool starts a supervisor for opts.Size workers. Workers spawn
// asynchronously: NewPool returns immediately, and a pool whose Cmd
// cannot be started simply never has an idle worker — every Run then
// fails fast with ErrExhausted and the caller degrades gracefully.
func NewPool(opts Options) *Pool {
	opts = opts.withDefaults()
	p := &Pool{
		opts:    opts,
		quar:    newQuarantine(opts.Quarantine),
		idle:    make(chan *proc, opts.Size),
		closeCh: make(chan struct{}),
		live:    make(map[*proc]struct{}),
	}
	for i := 0; i < opts.Size; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.spawn()
		}()
	}
	return p
}

// Quarantined reports whether hash is circuit-broken, with the
// remaining quarantine time.
func (p *Pool) Quarantined(hash string) (time.Duration, bool) {
	return p.quar.Quarantined(hash)
}

// Stats snapshots the pool counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	live := len(p.live)
	p.mu.Unlock()
	return Stats{
		Spawns:        p.spawns.Load(),
		SpawnFailures: p.spawnFails.Load(),
		Crashes:       p.crashes.Load(),
		IdleDeaths:    p.idleDeaths.Load(),
		Retries:       p.retries.Load(),
		RetriedOK:     p.retriedOK.Load(),
		Runs:          p.runs.Load(),
		Reaped:        p.reaped.Load(),
		Live:          live,
		Idle:          len(p.idle),
		Quarantined:   p.quar.Count(),
	}
}

// attemptTimeout bounds an attempt, pooled or native, whose request carries
// no deadline of its own.
const attemptTimeout = 60 * time.Second

// Run executes req on a pooled worker, transparently retrying on a
// fresh worker when one crashes (up to the retry budget), recording
// crashes against info.Hash for the quarantine breaker.
func (p *Pool) Run(req *Request, info RunInfo) (*Response, error) {
	if info.Hash != "" {
		if d, ok := p.quar.Quarantined(info.Hash); ok {
			return nil, &QuarantinedError{Hash: info.Hash, Remaining: d}
		}
	}
	timeout := attemptTimeout
	if req.Limits.Deadline > 0 {
		timeout = req.Limits.Deadline + p.opts.PipeMargin
	}

	var lastReason string
	maxAttempts := p.opts.Retry.MaxAttempts
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		pr, err := p.lease()
		if err != nil {
			return nil, err
		}
		p.runs.Add(1)
		resp, rtErr := p.roundTrip(pr, req, timeout, info.Stop)
		if rtErr == nil {
			p.backoffLevel.Store(0)
			p.release(pr)
			if attempt > 1 {
				p.retriedOK.Add(1)
			}
			return resp, nil
		}

		// The worker is dead, corrupt or stuck: kill it, restart the
		// slot with backoff, and account the crash.
		p.retire(pr)
		if errors.Is(rtErr, ErrCancelled) {
			return nil, ErrCancelled
		}
		// Give the death a moment to be reaped so the stderr tail
		// includes the panic stack, the forensics gold.
		select {
		case <-pr.dead:
		case <-time.After(200 * time.Millisecond):
		}
		tail := pr.stderr.Tail()
		lastReason = rtErr.Error()
		p.crashes.Add(1)
		if info.OnCrash != nil {
			info.OnCrash(Crash{PID: pr.pid, Attempt: attempt, Reason: lastReason, StderrTail: tail})
		}
		p.logf("worker crash: pid=%d attempt=%d/%d req=%s hash=%s reason=%q stderr_tail=%q",
			pr.pid, attempt, maxAttempts, req.RequestID, info.Hash, lastReason, tail)
		if info.Hash != "" && p.quar.Record(info.Hash) {
			d, _ := p.quar.Quarantined(info.Hash)
			return nil, &QuarantinedError{Hash: info.Hash, Remaining: d}
		}
		if attempt < maxAttempts {
			p.retries.Add(1)
		}
	}
	return nil, &CrashedError{Attempts: maxAttempts, LastReason: lastReason}
}

// lease takes an idle worker, discarding (and replacing) any that died
// while idle.
func (p *Pool) lease() (*proc, error) {
	timer := time.NewTimer(p.opts.LeaseTimeout)
	defer timer.Stop()
	for {
		select {
		case pr := <-p.idle:
			select {
			case <-pr.dead:
				p.idleDeaths.Add(1)
				p.logf("worker died idle: pid=%d", pr.pid)
				p.retire(pr)
				continue
			default:
				return pr, nil
			}
		case <-timer.C:
			return nil, ErrExhausted
		case <-p.closeCh:
			return nil, ErrClosed
		}
	}
}

func (p *Pool) release(pr *proc) {
	select {
	case p.idle <- pr:
	default:
		// Cannot happen (idle is sized to the pool), but never block a
		// request path on a full channel; drop the worker instead.
		p.retire(pr)
	}
}

// roundTrip sends one request and waits for its matching reply,
// bounding both the pipe write (a dead worker stops reading) and the
// whole exchange.
func (p *Pool) roundTrip(pr *proc, req *Request, timeout time.Duration, stop <-chan struct{}) (*Response, error) {
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
			return r.resp, nil
		case <-timer.C:
			return nil, fmt.Errorf("attempt deadline overrun (%s): worker stuck or dead", timeout)
		case <-stop:
			return nil, ErrCancelled
		}
	}
}

// retire kills a worker exactly once and schedules its replacement.
func (p *Pool) retire(pr *proc) {
	if !pr.retired.CompareAndSwap(false, true) {
		return
	}
	_ = pr.stdin.Close()
	if pr.cmd.Process != nil {
		_ = pr.cmd.Process.Kill()
	}
	p.scheduleRespawn()
}

// scheduleRespawn starts a replacement worker after the exponential
// backoff (with ±50% jitter) for the current consecutive-failure level.
func (p *Pool) scheduleRespawn() {
	level := p.backoffLevel.Add(1) - 1
	delay := p.backoffDelay(level)
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		timer := time.NewTimer(delay)
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-p.closeCh:
			return
		}
		p.spawn()
	}()
}

// backoffBase and backoffMax bound the exponential restart backoff:
// consecutive crashes double the respawn delay from base up to max.
const (
	backoffBase = 25 * time.Millisecond
	backoffMax  = 2 * time.Second
)

func (p *Pool) backoffDelay(level int64) time.Duration {
	if level > 20 {
		level = 20
	}
	d := backoffBase << uint(level)
	if d > backoffMax || d <= 0 {
		d = backoffMax
	}
	// ±50% jitter: crashes tend to be correlated (same poisonous
	// program hitting several workers); identical delays would respawn
	// and re-die in lockstep.
	half := int64(d) / 2
	if half > 0 {
		d = time.Duration(int64(d)/2 + rand.Int63n(int64(d)))
	}
	return d
}

// spawn starts one worker and parks it in the idle set. On failure it
// schedules another attempt with backoff — the pool keeps trying for as
// long as it is open, and callers degrade via ErrExhausted meanwhile.
func (p *Pool) spawn() {
	cmd := exec.Command(p.opts.Cmd[0], p.opts.Cmd[1:]...)
	cmd.Env = append(append(os.Environ(), p.opts.Env...), EnvWorker+"=1")
	tail := &tailBuffer{max: 2048}
	cmd.Stderr = tail
	stdin, err := cmd.StdinPipe()
	if err == nil {
		var stdout io.ReadCloser
		stdout, err = cmd.StdoutPipe()
		if err == nil {
			err = cmd.Start()
			if err == nil {
				p.adopt(cmd, stdin, stdout, tail)
				return
			}
		}
	}
	p.spawnFails.Add(1)
	p.logf("worker spawn failed: %v", err)
	p.backoffLevel.Add(1)
	// Re-schedule without going through retire (there is no process).
	delay := p.backoffDelay(p.backoffLevel.Load())
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		timer := time.NewTimer(delay)
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-p.closeCh:
			return
		}
		p.spawn()
	}()
}

// adopt registers a started worker process: reader + reaper goroutines,
// the live set, and the idle channel. If the pool closed while the
// process was starting, it is killed and reaped instead.
func (p *Pool) adopt(cmd *exec.Cmd, stdin io.WriteCloser, stdout io.ReadCloser, tail *tailBuffer) {
	pr := &proc{
		cmd:    cmd,
		stdin:  stdin,
		enc:    json.NewEncoder(stdin),
		respCh: make(chan procResult, 2),
		dead:   make(chan struct{}),
		stderr: tail,
		pid:    cmd.Process.Pid,
	}
	p.spawns.Add(1)

	// Reader: decode replies until the pipe dies, then report why.
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		dec := json.NewDecoder(stdout)
		for {
			var resp Response
			if err := dec.Decode(&resp); err != nil {
				if errors.Is(err, io.EOF) {
					err = fmt.Errorf("worker exited (pipe EOF)")
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
	}()

	// Reaper: collect the exit status so no worker ever zombies, then
	// drop the proc from the live set.
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		_ = cmd.Wait()
		close(pr.dead)
		p.reaped.Add(1)
		p.mu.Lock()
		delete(p.live, pr)
		p.mu.Unlock()
	}()

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.retire(pr)
		return
	}
	p.live[pr] = struct{}{}
	p.mu.Unlock()

	select {
	case p.idle <- pr:
	default:
		// Sized channel plus slot accounting make this unreachable;
		// refuse to leak the process if the invariant ever breaks.
		p.retire(pr)
	}
}

// Close shuts the supervisor down: every worker (idle or leased) is
// killed and reaped, respawns are cancelled, and Close returns only
// when no child process and no supervision goroutine remains — zero
// orphans, zero leaks.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.closed = true
	procs := make([]*proc, 0, len(p.live))
	for pr := range p.live {
		procs = append(procs, pr)
	}
	p.mu.Unlock()
	close(p.closeCh)
	for _, pr := range procs {
		p.retire(pr)
	}
	p.wg.Wait()
	// Drain the idle channel; everything in it is already retired.
	for {
		select {
		case <-p.idle:
		default:
			return
		}
	}
}

func (p *Pool) logf(format string, args ...any) {
	if p.opts.Logf != nil {
		p.opts.Logf(format, args...)
	}
}

// proc is one live worker process.
type proc struct {
	cmd     *exec.Cmd
	stdin   io.WriteCloser
	enc     *json.Encoder
	respCh  chan procResult
	dead    chan struct{}
	stderr  *tailBuffer
	seq     uint64
	retired atomic.Bool
	pid     int
}

type procResult struct {
	resp *Response
	err  error
}

// tailBuffer keeps the last max bytes written — the worker's stderr
// tail, which is the panic stack when it dies screaming.
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
