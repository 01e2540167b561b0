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
//   - the wire protocol (internal/wire, aliased in this file): one JSON
//     object per line in each direction over a child's stdin/stdout
//     pipes, sequence-numbered so the supervisor detects desynchronized
//     or corrupted streams;
//   - Execute (exec.go): the single compile-and-run path shared by
//     worker processes and the server's in-process fallback, so
//     isolation never becomes a semantic layer;
//   - ServeStdio (serve.go): the hidden worker mode a host binary
//     enters when re-exec'd by the pool (cmd/tetrad -worker);
//   - Pool (pool.go): workers started on demand and leased per request
//     from the child supervisor's resident set (child.go), crash
//     detection (death, corruption, deadline overrun), restarts backed
//     off exponentially with jitter, transparent bounded retry, and a
//     quarantine circuit breaker for programs that repeatedly kill their
//     workers (quarantine.go);
//   - NativeRunner (native.go): resident processes of promoted
//     artifacts, leased through the same resident set and protocol code.
package worker

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/trace"
	"repro/internal/wire"
)

// Request and Response are the wire protocol's messages, defined once in
// internal/wire so that native artifacts speak it without linking this
// package.
type (
	Request  = wire.Request
	Response = wire.Response
)

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
