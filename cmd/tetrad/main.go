// Command tetrad is the sandboxed Tetra execution service: the paper's
// IDE workload — run untrusted student programs on demand (§III) — served
// over HTTP at production scale.
//
// Usage:
//
//	tetrad [flags]
//
// Endpoints:
//
//	POST /run           execute one program: {"source": "...", "stdin": "...",
//	                    "backend": "interp"|"vm", "opt": 0|1|2,
//	                    "limits": {...}, "trace": bool, "race": bool}
//	GET  /metrics       cache hit rate, in-flight, queue depth, latency
//	                    histograms, rejection counters, worker supervision
//	                    stats and crash forensics
//	GET  /healthz/live  liveness probe (200 while the process serves HTTP)
//	GET  /healthz/ready readiness probe (503 the moment a drain begins);
//	                    the legacy /healthz is an alias
//
// Flags:
//
//	-addr          listen address (default :8714)
//	-max-inflight  concurrent execution cap (default 2×GOMAXPROCS)
//	-max-queue     admission queue bound (default 4×max-inflight)
//	-queue-timeout max queue wait before 429 (default 1s)
//	-drain-grace   shutdown grace before in-flight runs are cancelled
//	-drain-announce readiness-503 window before admissions close
//	-cache-entries compile cache capacity
//
// Isolation flags:
//
//	-isolation     "pool" (default: supervised worker processes) or "off"
//	               (in-process execution; degraded mode)
//	-retry-attempts max execution attempts per request across worker
//	               crashes (default 3)
//	-quarantine-threshold / -quarantine-window / -quarantine-ttl
//	               circuit breaker for programs that repeatedly crash
//	               workers (defaults 3 crashes / 1m window / 5m TTL;
//	               negative threshold disables)
//	-worker        internal: become a pooled execution worker on
//	               stdin/stdout (the supervisor re-execs this binary)
//
// Ceiling flags (-timeout, -max-steps, -max-threads, -max-output,
// -max-alloc) set the server-wide resource ceiling; unset fields take the
// sandbox defaults. Per-request limits are clamped by this ceiling: a
// client can tighten its own budget but never raise it.
//
// With isolation on, each execution runs in a supervised worker process:
// a crash (panic, OOM kill, stuck lock) costs one worker, the request is
// retried on a fresh one, and programs that repeatedly kill workers are
// quarantined (422). SIGINT/SIGTERM drains gracefully: readiness flips
// first, admissions stop, in-flight executions get the grace period,
// stragglers are cancelled through the resource governor — which wakes
// even lock-parked programs — and every worker is killed and reaped.
//
// The implementation lives in internal/server and internal/cli so it can
// be tested as a library.
package main

import (
	"os"

	"repro/internal/cli"
)

func main() {
	os.Exit(cli.ServeMain(os.Args[1:], os.Stdout, os.Stderr))
}
