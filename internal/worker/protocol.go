// Package worker is tetrad's crash-isolation tier: untrusted Tetra
// programs execute inside supervised child processes instead of the
// server's own address space, so a backend panic, a runaway allocation
// the governor missed, or a stuck lock kills a disposable worker — not
// the service. This is the Astrée playbook (PAPERS.md): farm work out
// to monitored OS processes, measure the isolation boundary, and treat
// liveness failures as faults to contain rather than bugs to hope away.
//
// The pieces:
//
//   - the wire protocol (this file): one JSON object per line in each
//     direction over the worker's stdin/stdout pipes, sequence-numbered
//     so the supervisor detects desynchronized or corrupted streams;
//   - Execute (exec.go): the single compile-and-run path shared by
//     worker processes and the server's in-process fallback, so
//     isolation never becomes a semantic layer;
//   - ServeStdio (serve.go): the hidden worker mode a host binary
//     enters when re-exec'd by the pool (cmd/tetrad -worker);
//   - Pool (pool.go): the supervisor — pre-forked workers, lease per
//     request, crash detection (death, corruption, deadline overrun),
//     restart with exponential backoff + jitter, transparent bounded
//     retry, and a quarantine circuit breaker for programs that
//     repeatedly kill their workers (quarantine.go).
package worker

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/guard"
	"repro/internal/trace"
)

// Request is one execution order sent to a worker. The server has
// already validated the request and clamped Limits by its ceiling; the
// worker applies them verbatim.
type Request struct {
	// Seq numbers the request on one worker's stream; the matching
	// Response must echo it, or the stream is corrupt.
	Seq uint64 `json:"seq"`
	// RequestID is the per-request forensics ID (X-Request-ID), carried
	// so worker-side logs can be correlated with the crash report.
	RequestID string `json:"request_id,omitempty"`

	Source  string `json:"source"`
	File    string `json:"file"`
	Stdin   string `json:"stdin,omitempty"`
	Backend string `json:"backend"` // "interp" or "vm"
	Opt     int    `json:"opt"`
	Trace   bool   `json:"trace,omitempty"`
	Race    bool   `json:"race,omitempty"`
	// TraceCap overrides the trace collector's retention bound for this
	// run (0 = trace.DefaultCap). The collector is a ring: when a run
	// emits more events than the cap, the oldest are dropped and the
	// summary reports Truncated/Dropped.
	TraceCap int `json:"trace_cap,omitempty"`

	// Limits is the effective (already clamped) budget for this run.
	// Every attempt carries the full budget: a retried request must
	// never inherit a dead attempt's consumed fuel.
	Limits guard.Limits `json:"limits"`
}

// Response answers one Request. A program that fails to compile or dies
// at runtime is still a successful round trip: the diagnostic rides in
// ErrStage/ErrMessage, exactly as the in-process path reports it.
type Response struct {
	Seq uint64 `json:"seq"`

	OK         bool   `json:"ok"`
	Stdout     string `json:"stdout"`
	ErrStage   string `json:"err_stage,omitempty"` // "compile" or "runtime"
	ErrMessage string `json:"err_message,omitempty"`
	ErrPos     string `json:"err_pos,omitempty"`

	CacheHit      bool  `json:"cache_hit"`
	CompileMicros int64 `json:"compile_us"`
	RunMicros     int64 `json:"run_us"`

	Trace *TraceInfo `json:"trace,omitempty"`
	Races []string   `json:"races,omitempty"`
}

// TraceInfo is the wire form of the execution-event summary.
type TraceInfo = trace.Summary

// HashProgram derives the quarantine key for one executable identity:
// file, source, backend and optimization level together, so a program
// that only kills the VM path does not get the interpreter path
// quarantined as collateral.
func HashProgram(file, source, backend string, opt int) string {
	h := sha256.New()
	h.Write([]byte(file))
	h.Write([]byte{0})
	h.Write([]byte(source))
	h.Write([]byte{0})
	fmt.Fprintf(h, "%s:%d", backend, opt)
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:12])
}
