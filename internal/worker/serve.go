package worker

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/wire"
)

// EnvWorker marks a process as a protocol child. The pool and the native
// runner set it on every child they spawn; host binaries that can serve
// as their own workers (the test binaries, embedders through
// tetra.ExitIfWorker) call ExitIfWorker at the top of main/TestMain to
// divert into the worker loop, and a native artifact's gort.Main enters
// its resident loop.
const EnvWorker = wire.EnvWorker

// ExitIfWorker diverts the current process into worker mode (and never
// returns) when EnvWorker is set. Call it before any other startup
// work; the process's stdin/stdout are the supervisor's pipes.
func ExitIfWorker() {
	if os.Getenv(EnvWorker) == "1" {
		os.Exit(ServeStdio())
	}
}

// ServeStdio runs the worker loop on the process's own stdio and
// returns the exit code: requests arrive as JSON lines on stdin,
// responses leave as JSON lines on stdout, and the loop ends cleanly
// when the supervisor closes the pipe. Fault injection is armed from
// the TETRA_FAULTS environment variable (the supervisor forwards it),
// which is how the chaos suites murder workers on schedule.
func ServeStdio() int {
	return Serve(os.Stdin, os.Stdout, fault.FromEnv())
}

// Serve is the worker loop on explicit pipes, for tests. It returns 0
// on clean EOF and 1 on a protocol error. Execution panics are NOT
// recovered: a crash here is the supervisor's problem by design.
func Serve(in io.Reader, out io.Writer, inj *fault.Injector) int {
	// Each worker process owns a private compile cache: a worker that
	// has run a program once serves repeats from memory, and a dead
	// worker's cache dies with it (fresh process, fresh state).
	cache := core.NewCompileCache(0)
	dec := json.NewDecoder(in)
	enc := json.NewEncoder(out)
	for {
		var req Request
		if err := dec.Decode(&req); err != nil {
			if errors.Is(err, io.EOF) {
				return 0 // supervisor closed the pipe: clean retirement
			}
			fmt.Fprintf(os.Stderr, "worker: protocol read: %v\n", err)
			return 1
		}
		// Before the first roll: the child's faults are a sequence of its
		// own, the same on every run, so how many requests it lives is a
		// function of its spec and its ordinal.
		if req.Seq == 1 && req.Child != 0 {
			inj.ForChild(req.Child)
		}

		// Crash window 1: die before any work happens.
		if _, ok := inj.Fire(fault.WorkerPanic); ok {
			panic(fmt.Sprintf("fault injected: worker panic (req %s seq %d)", req.RequestID, req.Seq))
		}

		resp := Execute(&req, cache)

		// Crash window 2: the work is done, the reply is dropped — the
		// cruelest case for retry semantics (SIGKILL mimics the
		// OOM-killer: no deferred functions, no flush, nothing).
		if _, ok := inj.Fire(fault.WorkerExit); ok {
			_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
			os.Exit(137) // unreachable on platforms where Kill works
		}

		// Crash window 3: stall the reply past the supervisor's
		// deadline, driving the overrun-kill path.
		if f, ok := inj.Fire(fault.WorkerDelay); ok {
			time.Sleep(f.Delay)
		}

		// Crash window 4: corrupt the stream mid-message.
		if _, ok := inj.Fire(fault.PipeTruncate); ok {
			data, _ := json.Marshal(resp)
			if len(data) > 2 {
				_, _ = out.Write(data[:len(data)/2])
			}
			os.Exit(7)
		}

		if err := enc.Encode(resp); err != nil {
			fmt.Fprintf(os.Stderr, "worker: protocol write: %v\n", err)
			return 1
		}
	}
}
