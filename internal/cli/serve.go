package cli

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/guard"
	"repro/internal/server"
	"repro/internal/worker"
)

// ServeMain runs the tetrad command (cmd/tetrad is a thin wrapper): it
// boots the sandboxed execution service and serves until SIGINT/SIGTERM,
// then drains gracefully. It returns the process exit code.
//
// With -worker the process instead becomes a pooled execution worker:
// it speaks the internal/worker pipe protocol on stdin/stdout and never
// opens a listener. The supervisor in the serving process spawns these
// by re-exec'ing its own binary.
func ServeMain(args []string, stdout, stderr io.Writer) int {
	return serveMain(args, stdout, stderr, nil)
}

// serveMain is ServeMain with an injectable stop channel so tests can
// shut the server down without sending real signals.
func serveMain(args []string, stdout, stderr io.Writer, stop <-chan struct{}) int {
	fs := flag.NewFlagSet("tetrad", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workerMode := fs.Bool("worker", false, "run as a pooled execution worker on stdin/stdout (internal; spawned by the supervisor)")
	addr := fs.String("addr", ":8714", "listen address")
	maxInFlight := fs.Int("max-inflight", 0, "maximum concurrently-executing programs (0 = 2×GOMAXPROCS)")
	maxQueue := fs.Int("max-queue", 0, "maximum requests waiting for an execution slot (0 = 4×max-inflight)")
	queueTimeout := fs.Duration("queue-timeout", time.Second, "how long a queued request waits before a 429")
	drainGrace := fs.Duration("drain-grace", guard.DefaultGrace, "how long shutdown lets in-flight runs finish before cancelling them")
	drainAnnounce := fs.Duration("drain-announce", 0, "how long readiness reports 503 before admissions close on shutdown")
	cacheEntries := fs.Int("cache-entries", 0, "compile cache capacity (0 = default)")
	isolation := fs.String("isolation", server.IsolationPool, "execution tier: \"pool\" (supervised worker processes) or \"off\" (in-process; degraded)")
	poolSize := fs.Int("pool-size", 0, "pre-forked execution workers (0 = max-inflight)")
	retryAttempts := fs.Int("retry-attempts", 0, "max execution attempts per request when workers crash (0 = default 3)")
	quarThreshold := fs.Int("quarantine-threshold", 0, "worker crashes within the window that quarantine a program (0 = default 3, negative disables)")
	quarWindow := fs.Duration("quarantine-window", 0, "crash-counting window (0 = default 1m)")
	quarTTL := fs.Duration("quarantine-ttl", 0, "how long a quarantined program stays rejected (0 = default 5m)")
	nativeThreshold := fs.Int("native-threshold", 32, "requests before a program is promoted to a gogen-compiled native binary (<=0 disables the native tier)")
	nativeBuildDir := fs.String("native-builddir", "", "directory for promoted native artifacts (default <tmp>/tetrad-native)")
	maxSessions := fs.Int("max-sessions", 0, "maximum live streaming debug sessions (0 = default 32)")
	sessionIdle := fs.Duration("session-idle-timeout", 0, "evict sessions with no stream and no commands for this long (0 = default 2m)")
	sessionMaxAge := fs.Duration("session-max-age", 0, "wall-clock ceiling of one debug session (0 = default 10m)")
	sessionTraceCap := fs.Int("session-trace-cap", 0, "per-session trace ring retention (0 = default 65536 events)")
	ceiling := limitFlags(fs, "ceiling: ", "sandbox default")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(stderr, "usage: tetrad [flags]")
		fs.PrintDefaults()
		return 2
	}
	if *workerMode {
		return worker.ServeStdio()
	}
	switch *isolation {
	case server.IsolationPool, server.IsolationOff:
	default:
		fmt.Fprintf(stderr, "tetrad: unknown -isolation %q (want %q or %q)\n",
			*isolation, server.IsolationPool, server.IsolationOff)
		return 2
	}

	logger := log.New(stderr, "tetrad: ", log.LstdFlags)
	opts := server.Options{
		Ceiling:       *ceiling,
		MaxInFlight:   *maxInFlight,
		MaxQueue:      *maxQueue,
		QueueTimeout:  *queueTimeout,
		DrainGrace:    *drainGrace,
		DrainAnnounce: *drainAnnounce,
		CacheEntries:  *cacheEntries,
		Isolation:     *isolation,
		PoolSize:      *poolSize,
		Retry:         worker.RetryPolicy{MaxAttempts: *retryAttempts},
		Quarantine: worker.QuarantinePolicy{
			Threshold: *quarThreshold,
			Window:    *quarWindow,
			TTL:       *quarTTL,
		},
		NativeThreshold:    *nativeThreshold,
		NativeBuildDir:     *nativeBuildDir,
		MaxSessions:        *maxSessions,
		SessionIdleTimeout: *sessionIdle,
		SessionMaxAge:      *sessionMaxAge,
		SessionTraceCap:    *sessionTraceCap,
		Logf:               logger.Printf,
	}
	srv := server.New(opts)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	ceil := srv.Ceiling()
	fmt.Fprintf(stdout, "tetrad: listening on %s\n", ln.Addr())
	fmt.Fprintf(stdout, "tetrad: isolation=%s\n", *isolation)
	if *nativeThreshold > 0 {
		if srv.Promoter() != nil {
			fmt.Fprintf(stdout, "tetrad: native tier on (threshold=%d)\n", *nativeThreshold)
		} else {
			fmt.Fprintln(stdout, "tetrad: native tier unavailable (no Go toolchain/module); serving without it")
		}
	}
	fmt.Fprintf(stdout, "tetrad: ceiling deadline=%s steps=%d threads=%d output=%dB alloc=%d cells\n",
		ceil.Deadline, ceil.MaxSteps, ceil.MaxThreads, ceil.MaxOutputBytes, ceil.MaxAllocCells)
	fmt.Fprintf(stdout, "tetrad: sessions max=%d idle-timeout=%s max-age=%s\n",
		srv.Options().MaxSessions, srv.Options().SessionIdleTimeout, srv.Options().SessionMaxAge)

	return serveUntilStopped("tetrad", ln, srv, srv.Drain, stdout, stderr, stop)
}

// serveUntilStopped is the life of both daemons, prog naming the one it
// speaks for: serve handler on ln until SIGINT/SIGTERM, a closed stop
// channel or a listener error, then drain, close the listener and collect
// the serving goroutine. It returns the process exit code.
func serveUntilStopped(prog string, ln net.Listener, handler http.Handler, drain func(<-chan struct{}) error,
	stdout, stderr io.Writer, stop <-chan struct{}) int {
	httpSrv := &http.Server{Handler: handler}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)

	select {
	case err := <-errCh:
		fmt.Fprintln(stderr, err)
		return 1
	case sig := <-sigCh:
		fmt.Fprintf(stdout, "%s: %s received, draining\n", prog, sig)
	case <-stop:
		fmt.Fprintf(stdout, "%s: stop requested, draining\n", prog)
	}

	drainErr := drain(nil)
	if err := httpSrv.Close(); err != nil {
		fmt.Fprintln(stderr, err)
	}
	<-errCh // Serve has returned
	if drainErr != nil {
		fmt.Fprintln(stderr, drainErr)
		return 1
	}
	fmt.Fprintf(stdout, "%s: drained cleanly\n", prog)
	return 0
}
