package vm

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/guard"
	"repro/internal/interp"
	"repro/internal/rt"
	"repro/internal/sched"
)

// runBothSched executes src on both backends under an explicit scheduler
// configuration (and optional limits), asserting they agree on output and
// success. Returns the common output.
func runBothSched(t *testing.T, src string, cfg sched.Config, lim guard.Limits) (string, error) {
	t.Helper()
	prog, bc := compileBoth(t, src)

	var iOut, vOut bytes.Buffer
	iErr := interp.New(prog, rt.Config{Stdout: &iOut, Sched: cfg, Limits: lim}).Run()
	vErr := New(bc, rt.Config{Stdout: &vOut, Sched: cfg, Limits: lim}).Run()

	if (iErr == nil) != (vErr == nil) {
		t.Fatalf("error disagreement: interp=%v vm=%v\n%s", iErr, vErr, src)
	}
	if iOut.String() != vOut.String() {
		t.Fatalf("output disagreement:\ninterp: %q\nvm:     %q\nsource:\n%s", iOut.String(), vOut.String(), src)
	}
	return vOut.String(), vErr
}

// sumLoop builds a parallel-for program summing i*i over range(n) into
// disjoint slots, so output is deterministic under any schedule.
func sumLoop(n int) string {
	return fmt.Sprintf(`def main():
    n = %d
    out = range(n)
    parallel for i in range(n):
        out[i] = i * i
    total = 0
    for v in out:
        total += v
    print(total)
`, n)
}

func sumSquares(n int) string {
	s := 0
	for i := 0; i < n; i++ {
		s += i * i
	}
	return fmt.Sprintf("%d\n", s)
}

// TestSchedChunkBoundaries sweeps iteration counts around the worker count
// and grain multiples, where chunk-claiming off-by-ones would drop or
// double-run iterations.
func TestSchedChunkBoundaries(t *testing.T) {
	cfgs := []sched.Config{
		{},                      // defaults: GOMAXPROCS workers, heuristic grain
		{Workers: 4},            // n == workers, workers±1 below
		{Workers: 4, Grain: 3},  // grain not dividing n
		{Workers: 1, Grain: 64}, // single worker, oversized grain
		{Workers: 16},           // more workers than elements for small n
	}
	for _, n := range []int{0, 1, 2, 3, 4, 5, 8, 9, 31, 33} {
		for _, cfg := range cfgs {
			name := fmt.Sprintf("n%d_w%d_g%d", n, cfg.Workers, cfg.Grain)
			t.Run(name, func(t *testing.T) {
				src := sumLoop(n)
				if n == 0 {
					// range(0) is invalid; use an empty range literal.
					src = "def main():\n    c = 0\n    parallel for i in [1 .. 0]:\n        c = 1\n    print(c)\n"
				}
				out, err := runBothSched(t, src, cfg, guard.Limits{})
				if err != nil {
					t.Fatalf("run error: %v", err)
				}
				want := sumSquares(n)
				if n == 0 {
					want = "0\n"
				}
				if out != want {
					t.Errorf("out = %q, want %q", out, want)
				}
			})
		}
	}
}

// TestSchedMultibyteString iterates a multibyte string in parallel under a
// small worker pool: each iteration must still see one whole code point.
func TestSchedMultibyteString(t *testing.T) {
	src := `def main():
    s = "héllo wörld"
    out = ["", "", "", "", "", "", "", "", "", "", ""]
    parallel for i in range(len(s)):
        out[i] = s[i]
    print(join(out, ""))
    print(len(s))
`
	out, err := runBothSched(t, src, sched.Config{Workers: 2, Grain: 3}, guard.Limits{})
	if err != nil {
		t.Fatalf("run error: %v", err)
	}
	if want := "héllo wörld\n11\n"; out != want {
		t.Errorf("out = %q, want %q", out, want)
	}
}

// TestSchedNestedParallel spawns a parallel block from inside each
// parallel-for iteration: inner threads are charged on top of the pool
// workers and must all join before the loop completes.
func TestSchedNestedParallel(t *testing.T) {
	src := `def main():
    n = 6
    a = range(n)
    b = range(n)
    parallel for i in range(n):
        parallel:
            a[i] = i * 2
            b[i] = i * 3
    s = 0
    for i in range(n):
        s += a[i] + b[i]
    print(s)
`
	out, err := runBothSched(t, src, sched.Config{Workers: 3}, guard.Limits{})
	if err != nil {
		t.Fatalf("run error: %v", err)
	}
	if want := "75\n"; out != want {
		t.Errorf("out = %q, want %q", out, want)
	}
}

// TestSchedBoundedThreadCharge proves the governor charges per pool
// worker, not per iteration: a 1000-iteration loop on 2 workers fits in a
// 3-thread budget that one-goroutine-per-element spawning would blow
// immediately.
func TestSchedBoundedThreadCharge(t *testing.T) {
	out, err := runBothSched(t, sumLoop(1000),
		sched.Config{Workers: 2}, guard.Limits{MaxThreads: 3})
	if err != nil {
		t.Fatalf("1000 iterations on 2 workers tripped a 3-thread budget: %v", err)
	}
	if want := sumSquares(1000); out != want {
		t.Errorf("out = %q, want %q", out, want)
	}

	// And the budget still bites when the pool itself is too wide.
	_, err = runBothSched(t, sumLoop(1000),
		sched.Config{Workers: 8}, guard.Limits{MaxThreads: 3})
	if err == nil || !strings.Contains(err.Error(), "thread") {
		t.Errorf("8-worker pool under 3-thread budget: err = %v", err)
	}
}

// TestSchedNegativeIndexDifferential checks Python-style negative indexing
// agrees across backends, including the below -len error.
func TestSchedNegativeIndexDifferential(t *testing.T) {
	src := `def main():
    a = [10, 20, 30]
    s = "héllo"
    print(a[-1], " ", a[-3], " ", s[-1], " ", s[-5])
    a[-2] = 99
    print(a[1])
`
	out, err := runBothSched(t, src, sched.Config{}, guard.Limits{})
	if err != nil {
		t.Fatalf("run error: %v", err)
	}
	if want := "30 10 o h\n99\n"; out != want {
		t.Errorf("out = %q, want %q", out, want)
	}

	_, err = runBothSched(t, "def main():\n    a = [1, 2]\n    i = -3\n    print(a[i])\n",
		sched.Config{}, guard.Limits{})
	if err == nil || !strings.Contains(err.Error(), "index -3 out of range") {
		t.Errorf("below -len err = %v", err)
	}
}
