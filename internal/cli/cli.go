// Package cli implements the tetra command (cmd/tetra is a thin wrapper),
// so the whole tool surface — run, check, ast dump, VM execution, bytecode
// disassembly, trace timeline, race and deadlock reports — is testable as
// a library.
package cli

import (
	"flag"
	"fmt"
	"io"

	"repro/internal/ast"
	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/deadlock"
	"repro/internal/guard"
	"repro/internal/racedetect"
	"repro/internal/sched"
	"repro/internal/trace"
)

// limitFlags registers the five budget flags tetra and tetrad share on fs
// and returns the limits they fill in at Parse. what prefixes each usage
// line and zero says what leaving a flag at 0 means.
func limitFlags(fs *flag.FlagSet, what, zero string) *guard.Limits {
	var l guard.Limits
	fs.DurationVar(&l.Deadline, "timeout", 0, what+"wall-clock limit per run (e.g. 1s, 500ms; 0 = "+zero+")")
	fs.Int64Var(&l.MaxSteps, "max-steps", 0, what+"statement/instruction budget per run, across all threads (0 = "+zero+")")
	fs.Int64Var(&l.MaxThreads, "max-threads", 0, what+"concurrently-live threads per run (0 = "+zero+")")
	fs.Int64Var(&l.MaxOutputBytes, "max-output", 0, what+"bytes of program output per run (0 = "+zero+")")
	fs.Int64Var(&l.MaxAllocCells, "max-alloc", 0, what+"allocation cells per run: array elements + string bytes (0 = "+zero+")")
	return &l
}

// Main runs the tetra command with the given arguments (excluding the
// program name) and streams. It returns the process exit code.
func Main(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tetra", flag.ContinueOnError)
	fs.SetOutput(stderr)
	checkOnly := fs.Bool("check", false, "parse and type-check only")
	printAST := fs.Bool("ast", false, "print the parsed program and exit")
	doTrace := fs.Bool("trace", false, "print a per-thread execution timeline")
	doRace := fs.Bool("race", false, "detect data races on shared variables")
	doDeadlock := fs.Bool("deadlock", false, "analyze lock contention and deadlock")
	noDetect := fs.Bool("no-detect", false, "disable live deadlock detection")
	timelineRows := fs.Int("timeline", 200, "maximum timeline rows (0 = unlimited)")
	traceCap := fs.Int("trace-cap", 0, "trace event retention: keep the most recent N events (0 = default 65536, negative = unbounded)")
	useVM := fs.Bool("vm", false, "execute on the bytecode VM instead of the AST interpreter (refused with -trace, -race or -deadlock: the VM records no events)")
	disasm := fs.Bool("disasm", false, "print the compiled bytecode and exit")
	limits := limitFlags(fs, "", "unlimited")
	sandbox := fs.Bool("sandbox", false, "apply sandbox default limits to any budget left unset")
	optLevel := fs.Int("O", bytecode.DefaultLevel, "bytecode optimization level for -vm and -disasm: 0 = none, 1 = jump threading + dead-code removal, 2 = 1 plus leaf inlining, step fusion and tail calls")
	workers := fs.Int("workers", 0, "worker goroutines per parallel-for loop (0 = GOMAXPROCS)")
	grain := fs.Int("grain", 0, "parallel-for chunk size in iterations (0 = max(1, n/(workers*8)))")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: tetra [flags] program.ttr")
		fs.PrintDefaults()
		return 2
	}
	if *useVM && (*doTrace || *doRace || *doDeadlock) {
		// tetrad's wording for the same request (server.RunRequest.Validate).
		fmt.Fprintln(stderr, `trace and race require the "interp" backend`)
		return 2
	}

	prog, err := core.CompileFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if *printAST {
		fmt.Fprint(stdout, ast.Print(prog))
		return 0
	}
	if *checkOnly {
		fmt.Fprintf(stdout, "%s: ok (%d function(s), %d lock name(s))\n",
			fs.Arg(0), len(prog.Funcs), len(prog.LockNames))
		return 0
	}
	if *disasm {
		bc, err := core.CompileBytecodeOpt(prog, *optLevel)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		for _, f := range bc.Funcs {
			fmt.Fprint(stdout, bytecode.Disassemble(f))
		}
		return 0
	}

	cfg := core.Config{
		Stdin:               stdin,
		Stdout:              stdout,
		NoDeadlockDetection: *noDetect,
		Limits:              *limits,
		Sched:               sched.Config{Workers: *workers, Grain: *grain},
	}
	if *sandbox {
		cfg.Limits = cfg.Limits.WithSandboxDefaults()
	}
	var col *trace.Collector
	if *doTrace || *doRace || *doDeadlock {
		col = trace.NewCollectorCap(*traceCap)
		cfg.Tracer = col
		cfg.TraceVars = *doRace
	}

	var runErr error
	if *useVM {
		runErr = core.RunVMOpt(prog, cfg, *optLevel)
	} else {
		runErr = core.Run(prog, cfg)
	}
	if runErr != nil {
		fmt.Fprintln(stderr, runErr)
	}

	if col != nil {
		events := col.Events()
		if dropped := col.Dropped(); dropped > 0 {
			fmt.Fprintf(stdout, "\ntrace truncated: %d oldest event(s) dropped (ring cap %d; raise with -trace-cap)\n",
				dropped, col.Cap())
		}
		if *doTrace {
			fmt.Fprintln(stdout, "\n--- execution timeline ---")
			fmt.Fprint(stdout, trace.Timeline(events, *timelineRows))
			s := trace.Summarize(events)
			fmt.Fprintf(stdout, "threads=%d steps=%d lock-acquires=%d lock-waits=%d prints=%d\n",
				s.Threads, s.Steps, s.LockAcquires, s.LockWaits, s.Outputs)
		}
		if *doRace {
			fmt.Fprintln(stdout, "\n--- race report ---")
			fmt.Fprint(stdout, racedetect.FormatReport(racedetect.Analyze(events)))
		}
		if *doDeadlock {
			fmt.Fprintln(stdout, "\n--- lock report ---")
			rep := deadlock.Analyze(events)
			if rep.Deadlocked != nil {
				fmt.Fprintln(stdout, "deadlock:", rep.Deadlocked)
			} else {
				fmt.Fprintln(stdout, "no deadlock in final state")
			}
			for name, n := range rep.Contention {
				fmt.Fprintf(stdout, "lock %q: %d contended acquisition(s)\n", name, n)
			}
		}
	}

	if runErr != nil {
		return 1
	}
	return 0
}
