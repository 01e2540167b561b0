// Package server is tetrad, the sandboxed Tetra execution service: the
// paper's IDE (§III) exists to run untrusted student programs on demand,
// and this package exposes that workload over HTTP at production scale.
//
// POST /run accepts one program (source, stdin, backend choice, -O level,
// per-request limit overrides) and answers with the program's output and
// diagnostics. Four in-tree mechanisms make it safe to point at the open
// internet:
//
//   - every execution runs under a guard.Governor whose budgets are the
//     request's limits clamped by a server-wide sandbox ceiling — a client
//     can tighten its own budget but never raise it;
//   - with isolation enabled, execution happens inside supervised worker
//     processes (internal/worker): a backend panic, runaway allocation or
//     stuck lock kills a disposable child, the supervisor restarts it with
//     backoff, retries the request on a fresh worker, and quarantines
//     programs that repeatedly kill workers (422 instead of burned pool);
//   - compilation goes through per-process compile caches, so the
//     steady-state cost of a popular exercise is a map lookup (the
//     benchmark's core.cache_hit_us, a microsecond or two, against
//     core.cache_miss_us, tens to hundreds depending on program size);
//   - an admission controller bounds in-flight executions and queue wait,
//     converting overload into prompt, well-formed 429s instead of
//     unbounded goroutine and memory growth.
//
// GET /metrics exposes cache hit rate, in-flight count, queue depth,
// per-backend latency histograms, worker supervision counters and crash
// forensics; GET /healthz/live answers as long as the process runs, GET
// /healthz/ready (and the legacy /healthz) flips to 503 the moment a
// drain begins — before any in-flight run is cancelled — so routers stop
// sending traffic first.
//
// Shutdown is graceful: Drain flips readiness, optionally waits a
// drain-announce window, stops admissions, waits for in-flight runs, and
// after the grace period cancels stragglers through the governor trip
// path — which wakes threads parked on Tetra locks, so even a program
// blocked inside `lock:` exits promptly (the liveness concern of "Fencing
// off Go", Lange et al.). Worker processes are killed and reaped on the
// way out: zero orphans.
package server

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	mrand "math/rand"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/guard"
	"repro/internal/metrics"
	"repro/internal/promote"
	"repro/internal/session"
	"repro/internal/worker"
)

// Isolation modes for Options.Isolation.
const (
	// IsolationOff executes programs in the server's own process — the
	// explicit degraded mode, and the automatic fallback when the
	// worker pool is exhausted.
	IsolationOff = "off"
	// IsolationPool executes programs in supervised worker processes.
	IsolationPool = "pool"
)

// Execution tiers echoed in RunResponse.Isolation.
const (
	TierWorker = "worker" // ran inside a pooled worker process
	TierInProc = "inproc" // ran in the server process
	TierNative = "native" // ran a promoted gogen-compiled binary
)

// Options configures a Server; the zero value serves sandbox-limited
// in-process executions with sensible production defaults.
type Options struct {
	// Ceiling is the server-wide resource ceiling every execution is
	// clamped by. The zero value applies the sandbox defaults
	// (guard.Limits.WithSandboxDefaults); to genuinely unbound an axis set
	// its field negative.
	Ceiling guard.Limits
	// NoSandboxDefaults serves the Ceiling exactly as given, without
	// filling unset fields with sandbox defaults. For trusted deployments.
	NoSandboxDefaults bool
	// MaxInFlight bounds concurrently-executing programs. Default
	// 2×GOMAXPROCS.
	MaxInFlight int
	// MaxQueue bounds requests waiting for an execution slot; arrivals
	// beyond it are rejected immediately with 429. Default 4×MaxInFlight.
	MaxQueue int
	// QueueTimeout bounds how long an admitted-queue request waits for a
	// slot before a 429. Default 1s.
	QueueTimeout time.Duration
	// DrainGrace is how long Drain lets in-flight executions finish before
	// cancelling them via the governor. Default guard.DefaultGrace.
	DrainGrace time.Duration
	// DrainAnnounce is how long Drain keeps serving after flipping
	// readiness to 503, giving routers time to stop sending traffic
	// before admissions close. Default 0 (close immediately).
	DrainAnnounce time.Duration
	// CacheEntries sizes the in-process compile cache (<= 0 selects the
	// core default). Worker processes size their own caches.
	CacheEntries int

	// Isolation selects the execution tier: IsolationOff (default — the
	// embedded-library mode) or IsolationPool (supervised worker
	// processes; what cmd/tetrad runs with).
	Isolation string
	// WorkerCmd is the argv spawning one worker. Default: this
	// executable re-exec'd with -worker.
	WorkerCmd []string
	// WorkerEnv is extra environment for workers (the chaos suites pass
	// TETRA_FAULTS here).
	WorkerEnv []string
	// Retry bounds execution attempts per request when workers crash.
	Retry worker.RetryPolicy
	// Quarantine is the circuit breaker for worker-killing programs.
	Quarantine worker.QuarantinePolicy

	// NativeThreshold enables the native promotion tier: after this many
	// requests for one program, a background builder compiles it via
	// gogen → `go build` and subsequent requests run the native binary
	// (demoting back to the VM if the artifact crashes). 0 disables the
	// tier — the library default; cmd/tetrad enables it at 32. The tier
	// needs the Go toolchain; without one it silently stays off.
	NativeThreshold int
	// NativeBuildDir is where promoted artifacts are written
	// (default <os.TempDir()>/tetrad-native). Artifacts are
	// content-addressed and reused across restarts.
	NativeBuildDir string
	// NativeRebuildBackoff is the cooldown before a demoted program may
	// be promoted again (default 30s).
	NativeRebuildBackoff time.Duration

	// MaxSessions caps live streaming debug sessions server-wide (POST
	// /session answers 429 beyond it). Default 32.
	MaxSessions int
	// SessionIdleTimeout evicts sessions with no stream subscriber and no
	// command activity for this long. Default 2m.
	SessionIdleTimeout time.Duration
	// SessionMaxAge replaces the batch deadline on the session path: an
	// interactive session may live this long before the governor ends it.
	// Default 10m.
	SessionMaxAge time.Duration
	// SessionTraceCap is the default trace-ring bound per session (0
	// selects trace.DefaultCap); individual sessions may tighten it.
	SessionTraceCap int

	// Faults arms the server-side injection points (fault.HandlerPanic,
	// fault.NativeKill) for the chaos suites. Nil means no injection.
	Faults *fault.Injector
	// Logf, when set, receives operational events: worker crashes with
	// request-ID forensics, spawn failures, handler panics.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if !o.NoSandboxDefaults {
		o.Ceiling = o.Ceiling.WithSandboxDefaults()
	}
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = 4 * o.MaxInFlight
	}
	if o.QueueTimeout <= 0 {
		o.QueueTimeout = time.Second
	}
	if o.DrainGrace <= 0 {
		o.DrainGrace = guard.DefaultGrace
	}
	if o.Isolation == "" {
		o.Isolation = IsolationOff
	}
	if o.MaxSessions <= 0 {
		o.MaxSessions = 32
	}
	if o.SessionIdleTimeout <= 0 {
		o.SessionIdleTimeout = 2 * time.Minute
	}
	if o.SessionMaxAge <= 0 {
		o.SessionMaxAge = 10 * time.Minute
	}
	if o.Isolation == IsolationPool && len(o.WorkerCmd) == 0 {
		if exe, err := os.Executable(); err == nil {
			o.WorkerCmd = []string{exe, "-worker"}
		} else {
			o.Isolation = IsolationOff // cannot self-exec; degrade
		}
	}
	return o
}

// Server is the tetrad HTTP handler. Create with New; it is immediately
// ready to serve and safe for concurrent use.
type Server struct {
	opts     Options
	cache    *core.CompileCache
	pool     *worker.Pool         // nil when isolation is off
	promoter *promote.Manager     // nil when the native tier is off
	native   *worker.NativeRunner // nil when the native tier is off
	sessions *session.Registry
	sem      chan struct{}

	notReady  atomic.Bool // readiness flipped (drain announced)
	draining  atomic.Bool // admissions closed
	drainCh   chan struct{}
	drainOnce sync.Once

	mu      sync.Mutex
	running map[uint64]worker.Canceler
	nextID  atomic.Uint64

	met counters
}

// New returns a Server enforcing opts. With IsolationPool the worker
// pool starts a worker when a request needs one, up to MaxInFlight: a
// pool whose workers cannot start (missing executable, fork limits)
// answers at once, and the request degrades to in-process execution
// instead of failing.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:    opts,
		cache:   core.NewCompileCache(opts.CacheEntries),
		sem:     make(chan struct{}, opts.MaxInFlight),
		drainCh: make(chan struct{}),
		running: make(map[uint64]worker.Canceler),
	}
	s.sessions = session.NewRegistry(session.Options{
		MaxSessions: opts.MaxSessions,
		IdleTimeout: opts.SessionIdleTimeout,
		TraceCap:    opts.SessionTraceCap,
		Logf:        opts.Logf,
	})
	if opts.Isolation == IsolationPool {
		s.pool = worker.NewPool(worker.Options{
			Cmd:        opts.WorkerCmd,
			Env:        opts.WorkerEnv,
			Size:       opts.MaxInFlight,
			Retry:      opts.Retry,
			Quarantine: opts.Quarantine,
			Logf:       opts.Logf,
		})
	}
	if opts.NativeThreshold > 0 {
		native := worker.NewNativeRunner(worker.NativeOptions{
			Faults: opts.Faults,
			Logf:   opts.Logf,
		})
		promoter := promote.New(promote.Config{
			Threshold:      opts.NativeThreshold,
			BuildDir:       opts.NativeBuildDir,
			RebuildBackoff: opts.NativeRebuildBackoff,
			Logf:           opts.Logf,
		})
		if promoter.Enabled() {
			s.promoter, s.native = promoter, native
		} else {
			// No toolchain: the tier stays off and every request simply
			// serves on the interp/VM tiers, as before.
			promoter.Close()
			native.Close()
			s.logf("native tier requested but unavailable (no Go toolchain/module); serving without it")
		}
	}
	return s
}

// Ceiling returns the effective server-wide limit ceiling.
func (s *Server) Ceiling() guard.Limits { return s.opts.Ceiling }

// Options returns the effective (defaulted) server options.
func (s *Server) Options() Options { return s.opts }

// Sessions exposes the streaming-session registry (for tests and
// benchmarks).
func (s *Server) Sessions() *session.Registry { return s.sessions }

// Cache exposes the in-process compile cache (for tests and benchmarks).
func (s *Server) Cache() *core.CompileCache { return s.cache }

// Pool exposes the worker supervisor, or nil when isolation is off
// (for tests and benchmarks).
func (s *Server) Pool() *worker.Pool { return s.pool }

// Promoter exposes the native promotion manager, or nil when the
// native tier is off (for tests and benchmarks).
func (s *Server) Promoter() *promote.Manager { return s.promoter }

// Native exposes the native artifact runner, or nil when the native
// tier is off (for tests and benchmarks).
func (s *Server) Native() *worker.NativeRunner { return s.native }

// statusWriter records whether a response has been started, so the
// panic-recovery middleware knows whether a 500 can still be written.
type statusWriter struct {
	http.ResponseWriter
	wrote bool
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.wrote = true
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	sw.wrote = true
	return sw.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer so SSE streams (the session
// event endpoint) can push frames through the middleware wrapper.
func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// ServeHTTP routes the endpoints behind the panic-recovery middleware:
// a panic anywhere in request handling answers with a well-formed 500
// JSON body (when the response has not started) instead of tearing down
// the connection, and increments the panics counter.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sw := &statusWriter{ResponseWriter: w}
	defer func() {
		if rec := recover(); rec != nil {
			s.met.panics.Add(1)
			s.logf("panic handling %s %s: %v", r.Method, r.URL.Path, rec)
			if !sw.wrote {
				writeError(sw, http.StatusInternalServerError,
					fmt.Sprintf("internal error: %v", rec))
			}
		}
	}()
	switch r.URL.Path {
	case "/run":
		s.handleRun(sw, r)
	case "/session":
		s.handleSessionCreate(sw, r)
	case "/metrics":
		s.handleMetrics(sw, r)
	case "/healthz", "/healthz/ready":
		s.handleReady(sw, r)
	case "/healthz/live":
		s.handleLive(sw, r)
	default:
		if strings.HasPrefix(r.URL.Path, "/session/") {
			s.handleSessionSub(sw, r)
			return
		}
		writeError(sw, http.StatusNotFound, fmt.Sprintf("no such endpoint %q", r.URL.Path))
	}
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	reqID := RequestIDFrom(r)
	w.Header().Set("X-Request-ID", reqID)
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST /run with a JSON body")
		return
	}
	s.met.requests.Add(1)
	var req RunRequest
	if !s.intake(w, r, &req, req.Validate) {
		return
	}

	// Chaos hook: prove the panic middleware answers 500 instead of
	// dropping the connection.
	if _, ok := s.opts.Faults.Fire(fault.HandlerPanic); ok {
		panic("fault injected: handler panic")
	}

	// The quarantine circuit breaker rejects known worker-killers
	// before they cost an admission slot or another worker.
	hash := worker.HashProgram(req.File, req.Source, req.Backend, req.optLevel())
	if s.pool != nil {
		if d, ok := s.pool.Quarantined(hash); ok {
			s.reject422(w, &req, d)
			return
		}
	}

	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()

	switch o := s.execute(&req, hash, reqID); o.status {
	case 0:
		writeJSON(w, http.StatusOK, o.resp)
	case http.StatusUnprocessableEntity:
		s.reject422(w, &req, o.retryIn)
	default:
		s.reject(w, o.status, o.msg)
	}
}

// maxBodyBytes bounds a request body.
const maxBodyBytes = 4 << 20

// intake is how a JSON body enters the server, for /run, /session and
// /session/{id}/cmd alike: refused while draining, read up to maxBodyBytes,
// decoded strictly into v (decodeStrict) and, when validate is non-nil,
// validated. On failure it has written the error response and counted it,
// and reports false.
func (s *Server) intake(w http.ResponseWriter, r *http.Request, v any, validate func() error) bool {
	if s.draining.Load() {
		s.reject(w, http.StatusServiceUnavailable, "server is draining")
		return false
	}
	status := http.StatusBadRequest
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	switch {
	case err != nil:
		err = fmt.Errorf("reading request body: %v", err)
	case len(body) > maxBodyBytes:
		status, err = http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", maxBodyBytes)
	default:
		if err = decodeStrict(body, v); err == nil && validate != nil {
			err = validate()
		}
	}
	if err != nil {
		s.met.badRequests.Add(1)
		writeError(w, status, err.Error())
		return false
	}
	return true
}

// reject answers an overload (429) or a drain (503) and counts it. A
// draining node is moments from handing its shard to a peer, and a herd
// rejected in one burst must not come back in one burst: the jittered
// Retry-After tells routers and clients when to try again.
func (s *Server) reject(w http.ResponseWriter, status int, msg string) {
	if status == http.StatusTooManyRequests {
		s.met.rejected429.Add(1)
	} else {
		s.met.rejected503.Add(1)
	}
	w.Header().Set("Retry-After", strconv.Itoa(1+mrand.Intn(3)))
	writeError(w, status, msg)
}

// reject422 answers a quarantined program: a positioned, well-formed
// 422 naming the file, with a Retry-After for when the quarantine lifts.
func (s *Server) reject422(w http.ResponseWriter, req *RunRequest, remaining time.Duration) {
	s.met.rejected422.Add(1)
	secs := int(remaining/time.Second) + 1
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeError(w, http.StatusUnprocessableEntity,
		fmt.Sprintf("%s: program quarantined: it repeatedly crashed execution workers; retry in %s",
			req.File, remaining.Round(time.Second)))
}

// admit implements the admission controller: a bounded queue in front of a
// bounded set of execution slots. It returns a release func on success; on
// rejection it has answered (reject) and reports false.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	refuse := func(status int, msg string) (func(), bool) {
		s.reject(w, status, msg)
		return nil, false
	}
	if d := s.met.queueDepth.Add(1); d > int64(s.opts.MaxQueue) {
		s.met.queueDepth.Add(-1)
		return refuse(http.StatusTooManyRequests,
			fmt.Sprintf("admission queue full (%d waiting, %d executing); retry later",
				s.opts.MaxQueue, s.opts.MaxInFlight))
	}
	defer s.met.queueDepth.Add(-1)

	t := time.NewTimer(s.opts.QueueTimeout)
	defer t.Stop()
	select {
	case s.sem <- struct{}{}:
	case <-t.C:
		return refuse(http.StatusTooManyRequests,
			fmt.Sprintf("no execution slot within %s (%d in flight); retry later",
				s.opts.QueueTimeout, s.opts.MaxInFlight))
	case <-s.drainCh:
		return refuse(http.StatusServiceUnavailable, "server is draining")
	case <-r.Context().Done():
		return refuse(http.StatusServiceUnavailable, "client went away while queued")
	}
	if s.draining.Load() {
		<-s.sem
		return refuse(http.StatusServiceUnavailable, "server is draining")
	}
	s.met.inFlight.Add(1)
	return func() {
		s.met.inFlight.Add(-1)
		<-s.sem
	}, true
}

// admitted is one admitted request on its way down the tier ladder.
type admitted struct {
	req   *RunRequest
	wreq  *worker.Request // carries the request id and the clamped limits
	hash  string          // quarantine key on the worker pool
	prior int             // execution attempts earlier rungs consumed
}

// outcome is what one rung of the ladder did with a request: a reply (resp),
// an HTTP error (status, with msg or, for a 422, retryIn), or neither —
// the request falls through to the next rung. attempts counts the crashed
// executions of a rung that fell through, so the final reply's Attempts
// reflects the whole journey.
type outcome struct {
	resp     *RunResponse
	status   int
	msg      string
	retryIn  time.Duration
	attempts int
}

// execute walks one admitted request down the ladder — promoted native
// artifact, pooled worker, the server's own process, which always answers —
// until a rung answers. A program that fails to compile or dies at runtime
// is a reply, not an error.
func (s *Server) execute(req *RunRequest, hash, reqID string) outcome {
	a := &admitted{req: req, hash: hash, wreq: &worker.Request{
		RequestID: reqID,
		Source:    req.Source,
		File:      req.File,
		Stdin:     req.Stdin,
		Backend:   req.Backend,
		Opt:       req.optLevel(),
		Trace:     req.Trace,
		Race:      req.Race,
		TraceCap:  req.TraceCap,
		Limits:    ClampLimits(req.Limits, s.opts.Ceiling),
	}}
	var o outcome
	for _, rung := range []func(*admitted) outcome{s.runNative, s.runOnPool, s.runInProcess} {
		if o = rung(a); o.resp != nil || o.status != 0 {
			break
		}
		a.prior += o.attempts
	}
	// A run an engine answered OK is the hotness signal, so a program whose
	// runs fail is never promoted: an artifact cannot name a deadlock, it
	// parks on it. The supervisor counts here because worker processes keep
	// private compile caches it cannot see into. Trace and race requests
	// never count: the native tier could not serve them.
	if r := o.resp; s.promoter != nil && r != nil && r.OK && r.Isolation != TierNative && !req.Trace && !req.Race {
		s.promoter.Observe(req.File, req.Source)
	}
	return o
}

// supervised runs one request in a child process through run (the native
// runner or the worker pool), with what both need: a stop channel the
// drain path can close, and crash forensics filed under hash. crashes is
// how many children the request killed.
func (s *Server) supervised(a *admitted, hash string, run func(worker.RunInfo) (*worker.Response, error)) (wresp *worker.Response, crashes int, err error) {
	stop := make(chan struct{})
	defer s.track(&stopCanceler{ch: stop})()
	wresp, err = run(worker.RunInfo{
		Hash: hash,
		Stop: stop,
		OnCrash: func(c worker.Crash) {
			crashes++
			s.met.recordCrash(CrashRecord{
				UnixMS:     time.Now().UnixMilli(),
				RequestID:  a.wreq.RequestID,
				Hash:       hash,
				PID:        c.PID,
				Attempt:    c.Attempt,
				Reason:     c.Reason,
				StderrTail: c.StderrTail,
			})
		},
	})
	return wresp, crashes, err
}

// failed is the reply for a run the server itself ended, on tier: a
// runtime error, like a governor trip.
func (s *Server) failed(a *admitted, tier string, attempts int, msg string) outcome {
	s.met.runtimeErrors.Add(1)
	return outcome{resp: &RunResponse{
		Backend: a.req.Backend, Opt: a.req.optLevel(),
		Isolation: tier, Attempts: attempts, RequestID: a.wreq.RequestID,
		Error: &RunError{Stage: "runtime", Message: msg},
	}}
}

const drainCancelled = "execution cancelled: server is draining"

// runNative is the first rung. A promoted artifact runs a loop faster than
// either engine, in a resident process that worker.NativeRunner starts on
// a request for the artifact when none is idle and reuses while its runs
// succeed (DESIGN.md §12). It falls through when the tier is off or the
// program is not promoted yet, when every resident process stays leased
// past the runner's lease wait (the pool answers), when the program fails
// (the engines answer with the error's position, which an artifact cannot
// give), and when the artifact crashes (it is then demoted: the demotion
// count is an artifact's one circuit breaker). Trace and race requests
// fall through too — native binaries carry no event collector.
func (s *Server) runNative(a *admitted) outcome {
	req := a.req
	if s.native == nil || req.Trace || req.Race {
		return outcome{}
	}
	bin, ok := s.promoter.Artifact(req.File, req.Source)
	if !ok {
		return outcome{} // not promoted (yet)
	}
	nhash := promote.Key(req.File, req.Source)

	wresp, crashes, err := s.supervised(a, nhash, func(info worker.RunInfo) (*worker.Response, error) {
		return s.native.Run(bin, a.wreq, info)
	})
	var ce *worker.CrashedError
	switch {
	case err == nil && !wresp.OK:
		// The program failed, and an artifact names only the error, not
		// where it happened. The engines do, so the request falls through
		// to them, under its own limits as a crash's retry is; the
		// artifact did nothing wrong and is not demoted.
		return outcome{}
	case err == nil:
		s.met.nativeRuns.Add(1)
		return outcome{resp: s.toRunResponse(a, wresp, TierNative, a.prior+1)}
	case errors.Is(err, worker.ErrCancelled):
		return s.failed(a, TierNative, a.prior+1, drainCancelled)
	case errors.As(err, &ce):
		// Demote and retry on the VM tier — transparently, within this
		// same request.
		s.met.nativeDemotions.Add(1)
		s.promoter.Demote(req.File, req.Source, ce.LastReason)
		s.logf("native artifact crashed (req %s, hash %s): %s; demoted, retrying on %s tier",
			a.wreq.RequestID, nhash, ce.LastReason, req.Backend)
	}
	// Otherwise ErrClosed (drain race) or ErrExhausted (artifact busy):
	// fall through without counting an attempt.
	return outcome{attempts: crashes}
}

// runOnPool is the second rung: a supervised worker process. It falls
// through — the request then runs in-process rather than queue forever —
// when isolation is off or the pool is exhausted or closed.
func (s *Server) runOnPool(a *admitted) outcome {
	if s.pool == nil {
		return outcome{}
	}
	start := time.Now()
	wresp, crashes, err := s.supervised(a, a.hash, func(info worker.RunInfo) (*worker.Response, error) {
		return s.pool.Run(a.wreq, info)
	})
	wall := time.Since(start)
	attempts := a.prior + crashes + 1

	var qe *worker.QuarantinedError
	var ce *worker.CrashedError
	switch {
	case err == nil:
		// Isolation overhead = supervised round-trip minus the work the
		// worker reported; the histogram quantifies the boundary cost.
		exec := time.Duration(wresp.CompileMicros+wresp.RunMicros) * time.Microsecond
		if over := wall - exec; over > 0 {
			s.met.latOverhead.Observe(over)
		}
		return outcome{resp: s.toRunResponse(a, wresp, TierWorker, attempts)}
	case errors.As(err, &qe):
		return outcome{status: http.StatusUnprocessableEntity, retryIn: qe.Remaining}
	case errors.As(err, &ce):
		return outcome{status: http.StatusServiceUnavailable,
			msg: fmt.Sprintf("execution crashed %d worker(s); retry later", ce.Attempts)}
	case errors.Is(err, worker.ErrCancelled):
		// Drain killed the attempt: report it like a governor trip, as
		// the in-process path would.
		return s.failed(a, TierWorker, attempts, drainCancelled)
	default: // ErrExhausted, ErrClosed
		s.met.fallbacks.Add(1)
		s.logf("worker pool exhausted; running req %s in-process (degraded)", a.wreq.RequestID)
		return outcome{attempts: crashes}
	}
}

// runInProcess is the last rung and always answers: execution in the
// server's own process, with panic recovery so a backend bug costs one
// request, not the service.
func (s *Server) runInProcess(a *admitted) (o outcome) {
	defer func() {
		if rec := recover(); rec != nil {
			s.met.panics.Add(1)
			s.logf("panic in in-process execution (req %s): %v", a.wreq.RequestID, rec)
			o = s.failed(a, TierInProc, a.prior+1, fmt.Sprintf("internal error: execution panicked: %v", rec))
		}
	}()
	wresp := worker.ExecuteTracked(a.wreq, s.cache, s.track)
	return outcome{resp: s.toRunResponse(a, wresp, TierInProc, a.prior+1)}
}

// toRunResponse converts a wire response into the HTTP body, counting
// the outcome metrics.
func (s *Server) toRunResponse(a *admitted, wresp *worker.Response, tier string, attempts int) *RunResponse {
	req := a.req
	resp := &RunResponse{
		OK:            wresp.OK,
		Backend:       req.Backend,
		Opt:           req.optLevel(),
		Stdout:        wresp.Stdout,
		CacheHit:      wresp.CacheHit,
		CompileMicros: wresp.CompileMicros,
		RunMicros:     wresp.RunMicros,
		Isolation:     tier,
		Attempts:      attempts,
		RequestID:     a.wreq.RequestID,
	}
	switch wresp.ErrStage {
	case "":
		s.met.okRuns.Add(1)
	case "compile":
		s.met.compileErrors.Add(1)
		resp.Error = &RunError{Stage: "compile", Message: wresp.ErrMessage}
	default:
		s.met.runtimeErrors.Add(1)
		resp.Error = &RunError{Stage: wresp.ErrStage, Message: wresp.ErrMessage, Pos: wresp.ErrPos}
	}
	if wresp.ErrStage != "compile" {
		h := s.met.latency(req.Backend)
		if tier == TierNative {
			h = &s.met.latNative
		}
		h.Observe(time.Duration(wresp.RunMicros) * time.Microsecond)
	}
	resp.Trace = wresp.Trace
	if req.Race && wresp.ErrStage != "compile" {
		resp.Races = wresp.Races
		if resp.Races == nil {
			resp.Races = []string{}
		}
	}
	return resp
}

// track registers a live execution's canceler for the drain path and
// returns its untrack func.
func (s *Server) track(c worker.Canceler) func() {
	id := s.nextID.Add(1)
	s.mu.Lock()
	s.running[id] = c
	s.mu.Unlock()
	return func() {
		s.mu.Lock()
		delete(s.running, id)
		s.mu.Unlock()
	}
}

// stopCanceler adapts a stop channel to the Canceler interface, for
// cancelling worker round-trips on drain.
type stopCanceler struct {
	once sync.Once
	ch   chan struct{}
}

func (sc *stopCanceler) Cancel() { sc.once.Do(func() { close(sc.ch) }) }

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Metrics())
}

// handleLive is the liveness probe: 200 for as long as the process can
// serve HTTP at all, draining or not. Restart the process only when
// this fails.
func (s *Server) handleLive(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "alive"})
}

// handleReady is the readiness probe (also the legacy /healthz): 503 as
// soon as a drain is announced, before admissions close — routers stop
// sending traffic while in-flight runs are still finishing untouched.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if s.notReady.Load() || s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// Metrics returns a point-in-time snapshot of the server counters.
func (s *Server) Metrics() MetricsSnapshot {
	st := s.cache.Stats()
	cm := CacheMetrics{Hits: st.Hits, Misses: st.Misses}
	if total := st.Hits + st.Misses; total > 0 {
		cm.HitRate = float64(st.Hits) / float64(total)
	}
	snap := MetricsSnapshot{
		Draining:      s.draining.Load(),
		Ready:         !(s.notReady.Load() || s.draining.Load()),
		Isolation:     s.opts.Isolation,
		InFlight:      s.met.inFlight.Load(),
		QueueDepth:    s.met.queueDepth.Load(),
		Requests:      s.met.requests.Load(),
		OKRuns:        s.met.okRuns.Load(),
		CompileErrors: s.met.compileErrors.Load(),
		RuntimeErrors: s.met.runtimeErrors.Load(),
		Rejected422:   s.met.rejected422.Load(),
		Rejected429:   s.met.rejected429.Load(),
		Rejected503:   s.met.rejected503.Load(),
		BadRequests:   s.met.badRequests.Load(),
		Panics:        s.met.panics.Load(),
		Fallbacks:     s.met.fallbacks.Load(),
		Cache:         cm,
		Latency: map[string]metrics.HistogramSnapshot{
			BackendInterp: s.met.latInterp.Snapshot(),
			BackendVM:     s.met.latVM.Snapshot(),
		},
		WorkerCrashes: s.met.crashRecords(),
	}
	ss := s.sessions.Snapshot()
	snap.Sessions = &ss
	snap.Latency["stream_lag"] = s.met.latStreamLag.Snapshot()
	if s.pool != nil {
		ps := s.pool.Stats()
		snap.Worker = &ps
		snap.Latency["isolation_overhead"] = s.met.latOverhead.Snapshot()
	}
	if s.native != nil {
		ns := s.native.Stats()
		snap.Native = &ns
		pr := s.promoter.Stats()
		snap.Promote = &pr
		snap.Promotions = pr.Builds + pr.ArtifactReuses
		snap.NativeRuns = s.met.nativeRuns.Load()
		snap.NativeDemotions = s.met.nativeDemotions.Load()
		snap.Latency[TierNative] = s.met.latNative.Snapshot()
	}
	return snap
}

// Drain gracefully shuts execution down: readiness flips to 503 first
// (and holds for DrainAnnounce so routers notice), then new requests are
// rejected, queued requests are woken and rejected, in-flight executions
// get DrainGrace to finish naturally, whatever still runs is cancelled
// through the governor trip path — which wakes threads parked on Tetra
// locks, so no execution can hold the drain hostage — and finally every
// worker process is killed and reaped. Drain returns once every
// execution has released its slot (or stop is closed / fires first, in
// which case the error reports how many were abandoned).
func (s *Server) Drain(stop <-chan struct{}) error {
	s.drainOnce.Do(func() {
		s.notReady.Store(true)
		if d := s.opts.DrainAnnounce; d > 0 {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-t.C:
			case <-stop:
			}
		}
		s.draining.Store(true)
		close(s.drainCh)
		// Readiness flipped above, before any eviction: routers have
		// stopped sending new sessions by the time streams start closing.
		// Every live session gets a terminal "drain" frame and its
		// goroutines are joined (bounded by the guard grace).
		s.sessions.CloseAll(session.ReasonDrain)
	})
	defer func() {
		s.sessions.Close()
		if s.pool != nil {
			s.pool.Close()
		}
		if s.native != nil {
			// Order matters: stop the builder first so no artifact lands
			// after the runner has killed its children.
			s.promoter.Close()
			s.native.Close()
		}
	}()
	grace := time.NewTimer(s.opts.DrainGrace)
	defer grace.Stop()
	if s.waitIdle(grace.C, stop) {
		return nil
	}
	s.cancelRunning()
	if s.waitIdle(nil, stop) {
		return nil
	}
	return fmt.Errorf("drain abandoned with %d execution(s) still in flight", s.met.inFlight.Load())
}

// waitIdle polls until no execution is in flight; either channel firing
// aborts the wait. Polling (rather than a WaitGroup) sidesteps the
// Add-concurrent-with-Wait hazard on the admission path.
func (s *Server) waitIdle(giveUp <-chan time.Time, stop <-chan struct{}) bool {
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		if s.met.inFlight.Load() == 0 {
			return true
		}
		select {
		case <-tick.C:
		case <-giveUp:
			return false
		case <-stop:
			return false
		}
	}
}

// cancelRunning trips every live execution's stop path: governors for
// in-process runs, round-trip aborts (worker kills) for pooled runs.
func (s *Server) cancelRunning() {
	s.mu.Lock()
	cs := make([]worker.Canceler, 0, len(s.running))
	for _, c := range s.running {
		cs = append(cs, c)
	}
	s.mu.Unlock()
	for _, c := range cs {
		c.Cancel()
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// RequestIDFrom accepts a well-formed client X-Request-ID or generates
// one, so every response and every crash-forensics record carries a
// correlation handle. Exported so the front router derives IDs at the
// edge with identical rules and forwards them here.
func RequestIDFrom(r *http.Request) string {
	id := r.Header.Get("X-Request-ID")
	if id != "" && len(id) <= 128 && printableToken(id) {
		return id
	}
	var b [8]byte
	if _, err := rand.Read(b[:]); err == nil {
		return hex.EncodeToString(b[:])
	}
	return fmt.Sprintf("req-%d", time.Now().UnixNano())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // the client hanging up mid-body is not our error
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, ErrorResponse{Error: msg, Code: status})
}

func printableToken(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] <= 0x20 || s[i] >= 0x7f {
			return false
		}
	}
	return true
}
