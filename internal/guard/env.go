package guard

import (
	"fmt"
	"strconv"
	"time"
)

// A hand-run compiled program reads its budget from environment variables
// (gort.Main; a resident artifact takes each request's Limits instead).
// This file is that format, and the only place its names are written:
// envTimeout carries Deadline as a Go duration, envCounts the counted
// budgets, in the order of counts, as non-negative integers.
const envTimeout = "TETRA_TIMEOUT"

var envCounts = [...]string{"TETRA_MAX_STEPS", "TETRA_MAX_THREADS", "TETRA_MAX_OUTPUT", "TETRA_MAX_ALLOC"}

func (l *Limits) counts() [len(envCounts)]*int64 {
	return [...]*int64{&l.MaxSteps, &l.MaxThreads, &l.MaxOutputBytes, &l.MaxAllocCells}
}

// LimitsFromEnv reads the budgets from the environment, through getenv. A
// malformed or negative value leaves its field unlimited and is worth a
// warning, not silence: whoever set it believes a budget is in force.
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
