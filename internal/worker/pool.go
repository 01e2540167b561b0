package worker

import (
	"errors"
	"fmt"
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
	// Size is the most workers live at once (default 2). Workers start on
	// demand: the first when the first Run needs one.
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

// Sentinel errors Run answers with. CrashedError and QuarantinedError
// carry detail.
var (
	// ErrExhausted: no child within leaseTimeout, or none can start. The
	// caller should degrade: the pool to in-process execution, the
	// native tier to the pool.
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
	set  *residents

	spawnFails, retries, retriedOK atomic.Int64
}

// NewPool returns a pool of at most opts.Size workers and starts none: a
// Run starts a worker when no idle one is left. A Run whose worker cannot
// start fails fast with ErrExhausted, and the caller degrades gracefully;
// the restart backoff spaces the next attempts.
func NewPool(opts Options) *Pool {
	opts = opts.withDefaults()
	return &Pool{
		opts: opts,
		quar: newQuarantine(opts.Quarantine),
		set:  newResidents("worker", opts.Env, opts.Size, opts.Logf),
	}
}

// Quarantined reports whether hash is circuit-broken, with the
// remaining quarantine time.
func (p *Pool) Quarantined(hash string) (time.Duration, bool) {
	return p.quar.Quarantined(hash)
}

// Stats snapshots the pool counters.
func (p *Pool) Stats() Stats {
	return Stats{
		ProcStats:     p.set.stats(),
		SpawnFailures: p.spawnFails.Load(),
		IdleDeaths:    p.set.idleDeaths.Load(),
		Retries:       p.retries.Load(),
		RetriedOK:     p.retriedOK.Load(),
		Idle:          p.set.idle(),
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
		pr, err := p.set.lease(p.opts.Cmd)
		switch {
		case errors.Is(err, ErrClosed), errors.Is(err, ErrExhausted):
			return nil, err
		case err != nil:
			p.spawnFails.Add(1)
			p.set.logf("worker spawn failed: %v", err)
			return nil, ErrExhausted
		}
		p.set.runs.Add(1)
		resp, rtErr := pr.roundTrip(req, timeout, info.Stop)
		if rtErr == nil {
			p.set.release(pr)
			if attempt > 1 {
				p.retriedOK.Add(1)
			}
			return resp, nil
		}

		// The worker is dead, corrupt or stuck: kill it and account the
		// crash — unless the caller cancelled or Close killed it.
		if !p.set.retire(pr, rtErr) {
			if errors.Is(rtErr, ErrCancelled) {
				return nil, ErrCancelled
			}
			return nil, ErrClosed
		}
		crash = p.set.crashed(pr.child, attempt, maxAttempts, req, info, rtErr.Error())
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

// Close shuts the supervisor down: every worker (idle or leased) is
// killed and reaped, and Close returns only when no child process and no
// supervision goroutine remains — zero orphans, zero leaks. A Run it
// interrupts returns ErrClosed.
func (p *Pool) Close() { p.set.close() }
