// Command tetra runs Tetra programs from the command line — the
// reproduction of the paper's "command line driver program for [the
// interpreter] which simply calls the interpreter on its argument from
// start to finish" (§IV), extended with the tooling flags the IDE exposes:
// trace visualization, race detection, and deadlock analysis.
//
// Usage:
//
//	tetra [flags] program.ttr
//
// Flags:
//
//	-check       parse and type-check only
//	-ast         print the parsed program (pretty-printed source)
//	-trace       record execution and print a per-thread ASCII timeline
//	-race        record shared-variable accesses and report lockset races
//	-deadlock    analyze the trace's lock events for contention/deadlock
//	-vm          execute on the bytecode VM instead of the AST interpreter
//	-disasm      print the compiled bytecode and exit
//	-O           bytecode optimization level for -vm/-disasm (0 none,
//	             1 jump threading + dead-code removal, 2 adds leaf
//	             inlining, fusion and tail calls; default 2)
//	-no-detect   disable live deadlock detection (hangs become real hangs)
//	-timeline N  cap timeline rows (default 200, 0 = unlimited)
//
// Resource limits for running untrusted programs (zero value = unlimited):
//
//	-timeout D      wall-clock budget (e.g. 1s, 500ms)
//	-max-steps N    statement/instruction budget
//	-max-threads N  live Tetra thread budget
//	-max-output N   stdout byte budget
//	-max-alloc N    allocation budget (array cells + string bytes)
//	-sandbox        apply all of the above with teaching-sized defaults
//
// The implementation lives in internal/cli so it can be tested as a
// library.
package main

import (
	"os"

	"repro/internal/cli"
)

func main() {
	os.Exit(cli.Main(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}
