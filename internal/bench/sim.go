package bench

import (
	"bytes"
	"fmt"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/simsched"
)

// DefaultSpawnCost is the thread-creation overhead charged per spawned
// worker, in work units. One work unit is one interpreted AST node
// (roughly tens of nanoseconds); goroutine creation plus the forked frame
// costs on the order of a few microseconds, i.e. a few dozen units.
const DefaultSpawnCost = 50

// SimRow pairs a worker count with its simulated timing.
type SimRow = simsched.Row

// SimSpeedup reproduces the paper's speedup experiment on a virtual
// multicore machine: for each worker count it runs the instrumented
// workload (counting per-thread work), then schedules that decomposition
// on the same number of virtual cores. See internal/simsched for the
// model and its fidelity notes.
//
// The profile stands for a machine with a core per worker, so the profiled
// run gets one goroutine per Tetra worker whatever the host's core count
// (with fewer, the workers of a `parallel for` would run one after another),
// and counting threads yield every thousand work units (interp's
// workQuantum) so that they advance together. That matters to any workload
// whose threads learn from each other. Primes shares nothing: its table is
// exact and repeats to the unit. TSP's workers prune on a shared bound, so
// each one's work depends on when it sees another's improvement: its table
// is a narrow range, not a number (EXPERIMENTS.md records it), and profiled
// one worker after another, worker 0 finds the bound alone and dominates
// the makespan.
func SimSpeedup(name string, mkSource func(workers int) string, workerCounts []int) ([]SimRow, error) {
	profiles := make([]simsched.Profile, 0, len(workerCounts))
	for _, w := range workerCounts {
		prog, err := core.Compile(fmt.Sprintf("%s_w%d.ttr", name, w), mkSource(w))
		if err != nil {
			return nil, err
		}
		var out bytes.Buffer
		tw, err := core.RunProfiled(prog, core.Config{Stdout: &out, Sched: sched.Config{Workers: w}})
		if err != nil {
			return nil, err
		}
		p := simsched.Profile{SpawnCost: DefaultSpawnCost}
		for _, t := range tw {
			if t.ID == 0 {
				p.Serial += t.Work
			} else {
				p.Workers = append(p.Workers, t.Work)
			}
		}
		profiles = append(profiles, p)
	}
	return simsched.Curve(workerCounts, profiles), nil
}

// FormatSimTable renders a simulated speedup table.
func FormatSimTable(title string, rows []SimRow) string {
	return simsched.FormatCurve(title, rows)
}
