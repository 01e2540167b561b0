package worker

import (
	"errors"
	"fmt"
	"math/rand"
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
	o.Retry = o.Retry.withDefaults()
	return o
}

// leaseTimeout bounds the wait for an idle worker before Run gives up with
// ErrExhausted — the caller's cue to fall back to degraded in-process
// execution instead of queuing forever.
const leaseTimeout = 250 * time.Millisecond

// Sentinel errors Run answers with. CrashedError and QuarantinedError
// carry detail.
var (
	// ErrExhausted: no idle worker within leaseTimeout. The caller
	// should degrade to in-process execution.
	ErrExhausted = errors.New("worker pool exhausted")
	// ErrClosed: the supervisor (pool or native runner) was shut down
	// before or during the call. A child Close kills is not a crash.
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

// CrashedError: every attempt crashed its child process and the retry
// budget is spent (a native artifact gets one attempt).
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
	ProcStats
	SpawnFailures int64 `json:"spawn_failures"`
	IdleDeaths    int64 `json:"idle_deaths"`
	Retries       int64 `json:"retries"`
	RetriedOK     int64 `json:"retried_ok"`
	Idle          int   `json:"idle"`
	Quarantined   int   `json:"quarantined"`
}

// Pool is the worker supervisor. Create with NewPool; safe for
// concurrent use. Close kills and reaps every worker.
type Pool struct {
	opts Options
	quar *quarantine
	sup  *supervisor
	idle chan *proc

	backoffLevel                               atomic.Int64
	spawnFails, idleDeaths, retries, retriedOK atomic.Int64
}

// NewPool starts a supervisor for opts.Size workers. Workers spawn
// asynchronously: NewPool returns immediately, and a pool whose Cmd
// cannot be started simply never has an idle worker — every Run then
// fails fast with ErrExhausted and the caller degrades gracefully.
func NewPool(opts Options) *Pool {
	opts = opts.withDefaults()
	p := &Pool{
		opts: opts,
		quar: newQuarantine(opts.Quarantine),
		sup:  newSupervisor("worker", opts.Logf),
		idle: make(chan *proc, opts.Size),
	}
	for i := 0; i < opts.Size; i++ {
		p.sup.launch(p.spawn)
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
	return Stats{
		ProcStats:     p.sup.stats(),
		SpawnFailures: p.spawnFails.Load(),
		IdleDeaths:    p.idleDeaths.Load(),
		Retries:       p.retries.Load(),
		RetriedOK:     p.retriedOK.Load(),
		Idle:          len(p.idle),
		Quarantined:   p.quar.Count(),
	}
}

// Run executes req on a pooled worker, transparently retrying on a
// fresh worker when one crashes (up to the retry budget), recording
// crashes against info.Hash for the quarantine breaker. A Run that Close
// interrupts returns ErrClosed.
func (p *Pool) Run(req *Request, info RunInfo) (*Response, error) {
	if info.Hash != "" {
		if d, ok := p.quar.Quarantined(info.Hash); ok {
			return nil, &QuarantinedError{Hash: info.Hash, Remaining: d}
		}
	}
	timeout := attemptDeadline(req.Limits)

	var crash *CrashedError
	maxAttempts := p.opts.Retry.MaxAttempts
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		pr, err := p.lease()
		if err != nil {
			return nil, err
		}
		p.sup.runs.Add(1)
		resp, rtErr := pr.roundTrip(req, timeout, info.Stop)
		if rtErr == nil {
			p.backoffLevel.Store(0)
			p.release(pr)
			if attempt > 1 {
				p.retriedOK.Add(1)
			}
			return resp, nil
		}

		// The worker is dead, corrupt or stuck: kill it, restart the
		// slot with backoff, and account the crash — unless Close killed
		// it, which is a shutdown.
		p.retire(pr)
		if errors.Is(rtErr, ErrCancelled) {
			return nil, ErrCancelled
		}
		if pr.shutdown.Load() {
			return nil, ErrClosed
		}
		crash = p.sup.crashed(pr.child, attempt, maxAttempts, req, info, rtErr.Error())
		if info.Hash != "" && p.quar.Record(info.Hash) {
			d, _ := p.quar.Quarantined(info.Hash)
			return nil, &QuarantinedError{Hash: info.Hash, Remaining: d}
		}
		if attempt < maxAttempts {
			p.retries.Add(1)
		}
	}
	return nil, crash
}

// lease takes an idle worker, discarding (and replacing) any that died
// while idle.
func (p *Pool) lease() (*proc, error) {
	timer := time.NewTimer(leaseTimeout)
	defer timer.Stop()
	for {
		select {
		case pr := <-p.idle:
			select {
			case <-pr.dead:
				p.retire(pr)
				if pr.shutdown.Load() {
					return nil, ErrClosed
				}
				p.idleDeaths.Add(1)
				p.sup.logf("worker died idle: pid=%d", pr.pid)
				continue
			default:
				return pr, nil
			}
		case <-timer.C:
			return nil, ErrExhausted
		case <-p.sup.done:
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

// retire kills a worker exactly once and schedules its replacement.
func (p *Pool) retire(pr *proc) {
	if pr.retire() {
		p.scheduleRespawn()
	}
}

// scheduleRespawn starts a replacement worker after the exponential
// backoff (with ±50% jitter) for the current consecutive-failure level.
// A worker that died and a spawn that failed both come here, so they
// step through the same delays.
func (p *Pool) scheduleRespawn() {
	delay := respawnDelay(p.backoffLevel.Add(1) - 1)
	p.sup.launch(func() {
		timer := time.NewTimer(delay)
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-p.sup.done:
			return
		}
		p.spawn()
	})
}

// backoffBase and backoffMax bound the exponential restart backoff:
// consecutive crashes double the respawn delay from base up to max.
const (
	backoffBase = 25 * time.Millisecond
	backoffMax  = 2 * time.Second
)

// respawnDelay is the backoff scheduleRespawn waits; a variable so that a
// test can record the levels it is asked for.
var respawnDelay = backoffDelay

func backoffDelay(level int64) time.Duration {
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
	pr, err := p.sup.startProc(p.opts.Cmd, p.opts.Env)
	switch {
	case err == nil:
		select {
		case p.idle <- pr:
		default:
			// Sized channel plus slot accounting make this unreachable;
			// refuse to leak the process if the invariant ever breaks.
			p.retire(pr)
		}
	case errors.Is(err, ErrClosed):
		// Closing: nothing to replace.
	default:
		p.spawnFails.Add(1)
		p.sup.logf("worker spawn failed: %v", err)
		p.scheduleRespawn()
	}
}

// Close shuts the supervisor down: every worker (idle or leased) is
// killed and reaped, respawns are cancelled, and Close returns only
// when no child process and no supervision goroutine remains — zero
// orphans, zero leaks. A Run it interrupts returns ErrClosed.
func (p *Pool) Close() {
	p.sup.close()
	// Drain the idle channel; every worker in it is dead.
	for {
		select {
		case <-p.idle:
		default:
			return
		}
	}
}
