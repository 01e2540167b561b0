package tetra

import (
	"context"
	"net"
	"net/http"

	"repro/internal/server"
	"repro/internal/session"
	"repro/internal/worker"
)

// ServerOptions configures the tetrad execution service: the server-wide
// limit ceiling, the admission controller (in-flight cap, queue bound,
// queue timeout), the drain grace and the compile-cache size, plus the
// crash-isolation tier (Isolation, PoolSize, Retry, Quarantine). The
// zero value serves sandbox-limited in-process executions with
// production defaults; set Isolation to IsolationPool for supervised
// worker processes. Set NativeThreshold > 0 to enable the native
// promotion tier: hot programs are compiled via gogen and `go build`
// into one-shot native binaries, with automatic demotion back to the
// VM tier if an artifact crashes.
//
// The server also hosts streaming debug sessions (POST /session + SSE):
// MaxSessions caps them server-wide, SessionIdleTimeout evicts abandoned
// ones, and SessionMaxAge replaces the batch deadline on the session
// path. Session counters appear in ServerMetrics.Sessions and the
// "stream_lag" latency histogram.
type ServerOptions = server.Options

// Isolation modes for ServerOptions.Isolation.
const (
	// IsolationOff executes programs in the embedding process (the
	// library default).
	IsolationOff = server.IsolationOff
	// IsolationPool executes each program in a supervised worker
	// process: crashes cost one worker, not the service. The embedding
	// binary must divert into worker mode when spawned as a worker —
	// call ExitIfWorker first thing in main.
	IsolationPool = server.IsolationPool
)

// ExitIfWorker diverts the current process into pooled-worker mode (and
// never returns) when it was spawned as an execution worker. Binaries
// that serve with IsolationPool must call it at the top of main.
func ExitIfWorker() { worker.ExitIfWorker() }

// RetryPolicy bounds execution attempts per request when worker
// processes crash mid-run.
type RetryPolicy = worker.RetryPolicy

// QuarantinePolicy is the circuit breaker for programs that repeatedly
// crash their workers.
type QuarantinePolicy = worker.QuarantinePolicy

// WorkerStats reports the worker supervisor's counters (spawns, crashes,
// retries, reaps), surfaced in ServerMetrics.Worker.
type WorkerStats = worker.Stats

// NativeStats reports the native tier's process accounting (runs,
// crashes, spawns, reaps), surfaced in ServerMetrics.Native when the
// native promotion tier is enabled.
type NativeStats = worker.NativeStats

// Server is the execution service behind cmd/tetrad: POST /run compiles
// (through a shared CompileCache) and executes untrusted programs under
// clamped guard budgets; POST /session opens a streaming debug session
// (SSE events, per-thread stepping, streamed stdin, on-demand race and
// deadlock analysis); GET /metrics and GET /healthz expose operational
// state. It implements http.Handler; use Drain for graceful shutdown.
type Server = server.Server

// SessionStats reports the streaming-session registry's counters
// (active, created, evicted, rejected), surfaced in
// ServerMetrics.Sessions.
type SessionStats = session.Stats

// ServerMetrics is the snapshot served by GET /metrics.
type ServerMetrics = server.MetricsSnapshot

// NewServer returns an execution service enforcing opts. Mount it on any
// mux, or use Handler/Serve for the common cases.
func NewServer(opts ServerOptions) *Server { return server.New(opts) }

// Handler returns the execution service as a plain http.Handler, for
// embedding tetrad's endpoints in an existing server.
func Handler(opts ServerOptions) http.Handler { return server.New(opts) }

// Serve runs the execution service on addr until ctx is cancelled, then
// shuts down gracefully: admissions stop, in-flight executions get the
// drain grace to finish, stragglers are cancelled through the governor
// trip path (waking even lock-parked programs), and the HTTP listener
// closes. It returns nil on a clean drain.
func Serve(ctx context.Context, addr string, opts ServerOptions) error {
	if addr == "" {
		addr = ":http" // as http.Server.ListenAndServe reads it
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return ServeListener(ctx, ln, opts)
}

// ServeListener is Serve on an already-bound listener, letting callers
// bind ":0" and discover the port. The listener is closed on return.
func ServeListener(ctx context.Context, ln net.Listener, opts ServerOptions) error {
	srv := server.New(opts)
	httpSrv := &http.Server{Handler: srv}

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	select {
	case err := <-errCh:
		return err // listener died before ctx was cancelled
	case <-ctx.Done():
	}
	drainErr := srv.Drain(nil)
	shutdownErr := httpSrv.Shutdown(context.Background())
	<-errCh // always http.ErrServerClosed after Shutdown
	if drainErr != nil {
		return drainErr
	}
	return shutdownErr
}
