package guard

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"
)

// A compiled program's budget crosses the process boundary as environment
// variables. This file is that format, both directions, so the supervisor
// that writes it (worker.NativeRunner) and the runtime that reads it
// (gort.InitGuard) cannot disagree: envTimeout carries Deadline as a Go
// duration, envCounts the counted budgets, in the order of counts, as
// non-negative integers.
const envTimeout = "TETRA_TIMEOUT"

var envCounts = [...]string{"TETRA_MAX_STEPS", "TETRA_MAX_THREADS", "TETRA_MAX_OUTPUT", "TETRA_MAX_ALLOC"}

func (l *Limits) counts() [len(envCounts)]*int64 {
	return [...]*int64{&l.MaxSteps, &l.MaxThreads, &l.MaxOutputBytes, &l.MaxAllocCells}
}

// Environ returns a child's environment: inherited with every limit
// variable dropped, then l's own budgets appended. The drop is deliberate
// hygiene — the parent may itself run under TETRA_* budgets (or an operator
// may have exported stale ones), and a child inheriting those would run
// under the wrong budget; an unset field of l means unlimited in the child
// too. Scheduling knobs (TETRA_WORKERS, TETRA_GRAIN) are operator
// configuration, not budget, and pass through.
func (l Limits) Environ(inherited []string) []string {
	env := make([]string, 0, len(inherited)+1+len(envCounts))
	for _, kv := range inherited {
		if name, _, _ := strings.Cut(kv, "="); name != envTimeout && !slices.Contains(envCounts[:], name) {
			env = append(env, kv)
		}
	}
	if l.Deadline > 0 {
		env = append(env, envTimeout+"="+l.Deadline.String())
	}
	for i, n := range l.counts() {
		if *n > 0 {
			env = append(env, envCounts[i]+"="+strconv.FormatInt(*n, 10))
		}
	}
	return env
}

// LimitsFromEnv reads the budgets Environ wrote, through getenv. A
// malformed or negative value leaves its field unlimited and is worth a
// warning, not silence: the supervisor that set it believes a budget is in
// force.
func LimitsFromEnv(getenv func(string) string) (l Limits, warnings []string) {
	for i, n := range l.counts() {
		if v := getenv(envCounts[i]); v != "" {
			if x, err := strconv.ParseInt(v, 10, 64); err == nil && x >= 0 {
				*n = x
			} else {
				warnings = append(warnings, fmt.Sprintf("ignoring %s=%q: want a non-negative integer", envCounts[i], v))
			}
		}
	}
	if v := getenv(envTimeout); v != "" {
		if d, err := time.ParseDuration(v); err == nil && d > 0 {
			l.Deadline = d
		} else {
			warnings = append(warnings, fmt.Sprintf("ignoring %s=%q: want a positive Go duration", envTimeout, v))
		}
	}
	return l, warnings
}
