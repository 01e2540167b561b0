// Command tetrabench regenerates the paper's evaluation (§IV) and the
// reproduction's backend ablation. See DESIGN.md §4 for the experiment index
// and EXPERIMENTS.md for recorded paper-vs-measured results. The system's
// benchmark — engines, compile pipeline, tetrad, workers, router — is
// `bash benchmark/run.sh` (benchmark/README.md), not this command.
//
// Usage:
//
//	tetrabench [-exp primes|tsp|ablation|all] [flags]
//
// Experiments:
//
//	primes    E1: speedup counting primes below -limit, workers ∈ -workers
//	tsp       E2: speedup solving an exact -n city TSP, workers ∈ -workers
//	ablation  A1: interpreter vs bytecode VM vs compiled Tetra vs native Go,
//	          sequential
//	all       all three (default)
//
// Each speedup experiment prints the wall-clock table (meaningful only up to
// the host's core count) and the simulated-multicore table (E3; the
// substitution documented in DESIGN.md §3.5), plus the paper's reference
// numbers for comparison.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	os.Exit(run())
}

func run() int {
	exp := flag.String("exp", "all", "experiment: primes, tsp, ablation, or all")
	limit := flag.Int("limit", 200000, "E1: count primes below this limit")
	fullScale := flag.Bool("paper-scale", false, "E1: use the paper's full workload (first million primes ⇒ limit 15485864); slow on the interpreter")
	n := flag.Int("n", 10, "E2: number of TSP cities")
	workersFlag := flag.String("workers", "1,2,4,8", "comma-separated worker counts")
	reps := flag.Int("reps", 1, "wall-clock repetitions per point (best-of)")
	flag.Parse()

	if *fullScale {
		*limit = 15485864 // π(15485864) = 1e6: the millionth prime is 15485863
	}
	workers, err := parseInts(*workersFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	fmt.Printf("host: nproc=%d GOMAXPROCS=%d (paper testbed: 8 cores)\n\n", runtime.NumCPU(), runtime.GOMAXPROCS(0))

	switch *exp {
	case "primes":
		return primes(*limit, workers, *reps)
	case "tsp":
		return tsp(*n, workers, *reps)
	case "ablation":
		return ablation(*limit, *n)
	case "all":
		if rc := primes(*limit, workers, *reps); rc != 0 {
			return rc
		}
		fmt.Println()
		if rc := tsp(*n, workers, *reps); rc != 0 {
			return rc
		}
		fmt.Println()
		return ablation(*limit, *n)
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		return 2
	}
}

func primes(limit int, workers []int, reps int) int {
	mk := func(w int) string { return bench.PrimesSource(limit, w) }
	title := fmt.Sprintf("E1: primes below %d (paper: first million primes, ~5x speedup @ 8 cores)", limit)
	return speedupExperiment("primes", title, mk, workers, reps)
}

func tsp(n int, workers []int, reps int) int {
	mk := func(w int) string { return bench.TSPSource(n, w) }
	title := fmt.Sprintf("E2: exact TSP, %d cities (paper: ~5x speedup @ 8 cores, 62.5%% efficiency)", n)
	return speedupExperiment("tsp", title, mk, workers, reps)
}

func speedupExperiment(name, title string, mk func(int) string, workers []int, reps int) int {
	fmt.Println(title)

	rows, err := bench.Speedup(name, mk, workers, reps, bench.Interp)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Print(bench.FormatTable("  measured wall-clock (interpreter):", rows))

	sim, err := bench.SimSpeedup(name, mk, workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Print(bench.FormatSimTable("  simulated multicore (work-count model, E3 efficiency):", sim))
	if len(sim) > 0 {
		last := sim[len(sim)-1]
		fmt.Printf("  paper @ 8 cores: 5.00x / 62.5%%   reproduced @ %d cores: %.2fx / %.1f%%\n",
			last.Cores, last.Speedup, 100*last.Efficiency)
	}
	return 0
}

func ablation(limit, n int) int {
	fmt.Println("A1: backend ablation (sequential workloads, 1 worker)")
	fmt.Println("  workload  backend       time        output")

	type runner struct {
		workload, backend string
		run               func() (string, time.Duration, error)
	}
	primesSrc := bench.PrimesSource(limit, 1)
	tspSrc := bench.TSPSource(n, 1)
	rs := []runner{
		{"primes", "interp", func() (string, time.Duration, error) {
			r, err := bench.RunOnce("primes.ttr", primesSrc, bench.Interp)
			return r.Output, r.Elapsed, err
		}},
		{"primes", "vm", func() (string, time.Duration, error) {
			r, err := bench.RunOnce("primes.ttr", primesSrc, bench.VM)
			return r.Output, r.Elapsed, err
		}},
		{"primes", "native-go", func() (string, time.Duration, error) {
			start := time.Now()
			c := bench.PrimesNative(limit, 1)
			return strconv.Itoa(c), time.Since(start), nil
		}},
		{"tsp", "interp", func() (string, time.Duration, error) {
			r, err := bench.RunOnce("tsp.ttr", tspSrc, bench.Interp)
			return r.Output, r.Elapsed, err
		}},
		{"tsp", "vm", func() (string, time.Duration, error) {
			r, err := bench.RunOnce("tsp.ttr", tspSrc, bench.VM)
			return r.Output, r.Elapsed, err
		}},
		{"tsp", "native-go", func() (string, time.Duration, error) {
			start := time.Now()
			best := bench.TSPNative(n, 1)
			return fmt.Sprintf("%.0f", best), time.Since(start), nil
		}},
	}
	if bench.HaveToolchain() {
		// The full future-work pipeline: Tetra → Go source → native binary.
		for _, wl := range []struct{ name, src string }{
			{"primes", primesSrc}, {"tsp", tspSrc},
		} {
			wl := wl
			rs = append(rs, runner{wl.name, "compiled", func() (string, time.Duration, error) {
				bin, cleanup, err := bench.BuildCompiled(wl.name+".ttr", wl.src)
				if err != nil {
					return "", 0, err
				}
				defer cleanup()
				r, err := bench.RunBinary(bin, "")
				return r.Output, r.Elapsed, err
			}})
		}
	}
	for _, r := range rs {
		out, d, err := r.run()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("  %-9s %-10s %12s  %s\n", r.workload, r.backend, d.Round(time.Microsecond), out)
	}
	fmt.Println("  (the gap illustrates the paper's stance: Tetra trades raw speed for simplicity;")
	fmt.Println("   vm is the bytecode path, compiled is the future-work Tetra→Go→binary pipeline,")
	fmt.Println("   native-go is hand-written Go as the lower bound)")
	return 0
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad worker count %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no worker counts given")
	}
	return out, nil
}
