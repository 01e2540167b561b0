package bench

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"repro/internal/ast"
	"repro/internal/core"
)

// Backend selects the execution engine being measured.
type Backend int

// Available backends.
const (
	Interp Backend = iota // AST-walking interpreter (the paper's system)
	VM                    // bytecode VM (the paper's future-work compiler, substituted)
)

// String names the backend.
func (b Backend) String() string {
	if b == VM {
		return "vm"
	}
	return "interp"
}

// Result is one timed execution.
type Result struct {
	Output  string
	Elapsed time.Duration
}

// RunOnce compiles and executes src on the chosen backend, returning the
// program's output and wall-clock run time (compilation excluded, matching
// how the paper times its interpreter).
func RunOnce(name, src string, backend Backend) (Result, error) {
	prog, err := core.Compile(name, src)
	if err != nil {
		return Result{}, err
	}
	return runProg(prog, backend)
}

func runProg(prog *ast.Program, backend Backend) (Result, error) {
	var out bytes.Buffer
	cfg := core.Config{Stdout: &out}
	start := time.Now()
	var err error
	if backend == VM {
		err = core.RunVM(prog, cfg)
	} else {
		err = core.Run(prog, cfg)
	}
	if err != nil {
		return Result{}, err
	}
	return Result{Output: strings.TrimSpace(out.String()), Elapsed: time.Since(start)}, nil
}

// Row is one line of a speedup table.
type Row struct {
	Workers    int
	Elapsed    time.Duration
	Output     string
	Speedup    float64 // T(1) / T(workers)
	Efficiency float64 // Speedup / workers
}

// Speedup measures the workload produced by mkSource at each worker count,
// deriving speedup and efficiency against the 1-worker run. Each point is
// the best of reps runs (minimum wall time), the standard way to reduce
// scheduling noise for short benchmarks.
func Speedup(name string, mkSource func(workers int) string, workerCounts []int, reps int, backend Backend) ([]Row, error) {
	if reps < 1 {
		reps = 1
	}
	rows := make([]Row, 0, len(workerCounts))
	var t1 time.Duration
	for _, w := range workerCounts {
		prog, err := core.Compile(fmt.Sprintf("%s_w%d.ttr", name, w), mkSource(w))
		if err != nil {
			return nil, err
		}
		best := Result{Elapsed: 1<<63 - 1}
		for r := 0; r < reps; r++ {
			res, err := runProg(prog, backend)
			if err != nil {
				return nil, err
			}
			if res.Elapsed < best.Elapsed {
				best = res
			}
		}
		if w == workerCounts[0] {
			t1 = best.Elapsed
		}
		row := Row{Workers: w, Elapsed: best.Elapsed, Output: best.Output}
		if best.Elapsed > 0 {
			row.Speedup = float64(t1) / float64(best.Elapsed)
			row.Efficiency = row.Speedup / float64(w)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTable renders rows the way EXPERIMENTS.md and cmd/tetrabench print
// them.
func FormatTable(title string, rows []Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", title)
	sb.WriteString("  workers      time     speedup  efficiency  output\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %7d  %9s  %7.2fx  %9.1f%%  %s\n",
			r.Workers, r.Elapsed.Round(time.Millisecond), r.Speedup, 100*r.Efficiency, r.Output)
	}
	return sb.String()
}
