package guard

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// getenvOf looks variables up in an environment as os.Getenv would.
func getenvOf(env []string) func(string) string {
	return func(name string) string {
		for _, kv := range env {
			if v, ok := strings.CutPrefix(kv, name+"="); ok {
				return v
			}
		}
		return ""
	}
}

// A hand-run binary's environment sets every budget by its name.
func TestLimitsFromEnvReadsEveryBudget(t *testing.T) {
	env := []string{"PATH=/bin", "TETRA_TIMEOUT=1.5s", "TETRA_MAX_STEPS=7", "TETRA_MAX_THREADS=3",
		"TETRA_MAX_OUTPUT=1048576", "TETRA_MAX_ALLOC=9", "TETRA_WORKERS=3"}
	want := Limits{Deadline: 1500 * time.Millisecond, MaxSteps: 7, MaxThreads: 3, MaxOutputBytes: 1 << 20, MaxAllocCells: 9}
	if got, warnings := LimitsFromEnv(getenvOf(env)); got != want || warnings != nil {
		t.Errorf("limits = %+v (warnings %q), want %+v", got, warnings, want)
	}
	if got, warnings := LimitsFromEnv(getenvOf(nil)); got != (Limits{}) || warnings != nil {
		t.Errorf("empty environment: %+v (warnings %q), want no limit", got, warnings)
	}
}

func TestMalformedLimitIsAWarningAndNoLimit(t *testing.T) {
	got, warnings := LimitsFromEnv(getenvOf([]string{"TETRA_MAX_STEPS=abc", "TETRA_MAX_ALLOC=-1", "TETRA_TIMEOUT=soon", "TETRA_MAX_THREADS=4"}))
	if want := (Limits{MaxThreads: 4}); got != want {
		t.Errorf("limits = %+v, want %+v", got, want)
	}
	want := []string{
		`ignoring TETRA_MAX_STEPS="abc": want a non-negative integer`,
		`ignoring TETRA_MAX_ALLOC="-1": want a non-negative integer`,
		`ignoring TETRA_TIMEOUT="soon": want a positive Go duration`,
	}
	if !reflect.DeepEqual(warnings, want) {
		t.Errorf("warnings = %q, want %q", warnings, want)
	}
}
