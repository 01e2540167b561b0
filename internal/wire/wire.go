// Package wire is the one definition of the execution protocol spoken
// over a child process's stdin and stdout: one JSON Request per line in,
// one JSON Response per line out, sequence-numbered so the supervisor
// detects a desynchronized or corrupted stream. Pooled workers
// (internal/worker) and resident native artifacts (internal/gort) both
// speak it, so this package is a leaf: an artifact links it without
// linking the supervisor.
package wire

import (
	"repro/internal/guard"
	"repro/internal/trace"
)

// EnvWorker, set to "1" in a child's environment, makes the child serve
// the protocol on its stdio instead of running once: a host binary enters
// the pooled worker loop, a native artifact its resident loop.
const EnvWorker = "TETRAD_WORKER"

// Request is one execution order sent to a child. The server has
// already validated the request and clamped Limits by its ceiling; the
// child applies them verbatim.
type Request struct {
	// Seq numbers the request on one child's stream; the matching
	// Response must echo it, or the stream is corrupt.
	Seq uint64 `json:"seq"`
	// Child is the ordinal the supervisor gave the child on its stream
	// (its first child is 1), from which the child seeds its fault
	// injection; 0 when no supervisor numbered it.
	Child int64 `json:"child,omitempty"`
	// RequestID is the per-request forensics ID (X-Request-ID), carried
	// so child-side logs can be correlated with the crash report.
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

	Trace *trace.Summary `json:"trace,omitempty"`
	Races []string       `json:"races,omitempty"`
}
