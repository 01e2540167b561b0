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

func TestLimitsSurviveTheEnvironment(t *testing.T) {
	for _, l := range []Limits{
		{},
		{Deadline: 1500 * time.Millisecond},
		{MaxSteps: 7, MaxOutputBytes: 1 << 20},
		Limits{}.WithSandboxDefaults(),
	} {
		got, warnings := LimitsFromEnv(getenvOf(l.Environ(nil)))
		if got != l || warnings != nil {
			t.Errorf("%+v came back as %+v (warnings %q)", l, got, warnings)
		}
	}
}

// A parent's own budget, or a stale export, never reaches a child: every
// limit variable is dropped before the request's are written.
func TestEnvironDropsInheritedLimits(t *testing.T) {
	inherited := []string{"PATH=/bin", "TETRA_TIMEOUT=1ns", "TETRA_MAX_STEPS=1", "TETRA_MAX_THREADS=1",
		"TETRA_MAX_OUTPUT=1", "TETRA_MAX_ALLOC=1", "TETRA_WORKERS=3"}
	got := Limits{MaxSteps: 5}.Environ(inherited)
	if want := []string{"PATH=/bin", "TETRA_WORKERS=3", "TETRA_MAX_STEPS=5"}; !reflect.DeepEqual(got, want) {
		t.Errorf("child environment = %q, want %q", got, want)
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
