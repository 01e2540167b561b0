// Package repro is a from-scratch Go reproduction of "Introducing Tetra:
// An Educational Parallel Programming System" (IPPS 2015).
//
// The public API lives in repro/tetra; the command-line tools are
// cmd/tetra (run/check/trace), cmd/tetradbg (per-thread stepping debugger,
// the paper's IDE stand-in) and cmd/tetrabench (regenerates the paper's
// evaluation). See README.md for the language, DESIGN.md for the system
// inventory and experiment index, and EXPERIMENTS.md for paper-vs-measured
// results.
//
// The benchmarks in bench_test.go regenerate, via `go test -bench=.`, one
// entry per table/figure of the paper (F1-F3 program figures, E1/E2
// speedup workloads, A1/A2 ablations). The system as a whole — engines,
// compile pipeline, tetrad, workers, router — is measured by the separate
// module in benchmark/ (`bash benchmark/run.sh`, declared in BENCHMARK.json).
package repro
