package bench

import (
	"fmt"
	"strings"
	"testing"
)

func TestPrimesSourceCorrect(t *testing.T) {
	// The Tetra workload must agree with the native baseline at every
	// worker count (splitting must not lose boundary candidates).
	for _, w := range []int{1, 2, 3, 4, 8} {
		res, err := RunOnce("primes.ttr", PrimesSource(2000, w), Interp)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		want := fmt.Sprintf("%d", PrimesNative(2000, 1))
		if res.Output != want {
			t.Errorf("workers=%d: tetra=%s native=%s", w, res.Output, want)
		}
	}
}

func TestPrimesNativeKnownValues(t *testing.T) {
	cases := []struct{ limit, want int }{
		{10, 4}, // 2 3 5 7
		{100, 25},
		{1000, 168},
		{10000, 1229},
	}
	for _, c := range cases {
		if got := PrimesNative(c.limit, 1); got != c.want {
			t.Errorf("π(%d) = %d, want %d", c.limit, got, c.want)
		}
		if got := PrimesNative(c.limit, 4); got != c.want {
			t.Errorf("π(%d) with 4 workers = %d, want %d", c.limit, got, c.want)
		}
	}
}

func TestTSPSourceCorrect(t *testing.T) {
	native := TSPNative(8, 1)
	for _, w := range []int{1, 2, 4} {
		res, err := RunOnce("tsp.ttr", TSPSource(8, w), Interp)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		want := fmt.Sprintf("%.0f", native)
		if res.Output != want {
			t.Errorf("workers=%d: tetra=%s native=%s", w, res.Output, want)
		}
	}
}

func TestTSPNativeWorkerInvariance(t *testing.T) {
	// The optimum must not depend on how branches are distributed.
	base := TSPNative(9, 1)
	for _, w := range []int{2, 4, 8} {
		if got := TSPNative(9, w); got != base {
			t.Errorf("workers=%d: %f != %f", w, got, base)
		}
	}
}

func TestBackendsAgree(t *testing.T) {
	src := PrimesSource(3000, 4)
	a, err := RunOnce("p.ttr", src, Interp)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunOnce("p.ttr", src, VM)
	if err != nil {
		t.Fatal(err)
	}
	if a.Output != b.Output {
		t.Errorf("interp=%s vm=%s", a.Output, b.Output)
	}
}

func TestSpeedupTableShape(t *testing.T) {
	rows, err := Speedup("primes", func(w int) string { return PrimesSource(3000, w) }, []int{1, 2}, 1, Interp)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Speedup != 1.0 || rows[0].Efficiency != 1.0 {
		t.Errorf("baseline row = %+v", rows[0])
	}
	if rows[0].Output != rows[1].Output {
		t.Errorf("outputs differ across worker counts: %q vs %q", rows[0].Output, rows[1].Output)
	}
	text := FormatTable("t", rows)
	if !strings.Contains(text, "workers") || !strings.Contains(text, "100.0%") {
		t.Errorf("table = %q", text)
	}
}

func TestSimSpeedupShape(t *testing.T) {
	for _, wl := range []struct {
		name  string
		mk    func(w int) string
		floor float64 // least plausible 8-core simulated speedup
	}{
		{"primes", func(w int) string { return PrimesSource(20000, w) }, 2.0},
		// TSP's workers prune on each other's bound, so its profile depends
		// on the workers advancing together. Profiled one worker after
		// another (what a host with fewer cores than workers used to do)
		// this instance reads 2.9-3.3x; in step, 4.7-4.8x.
		{"tsp", func(w int) string { return TSPSource(10, w) }, 4.0},
	} {
		t.Run(wl.name, func(t *testing.T) {
			rows, err := SimSpeedup(wl.name, wl.mk, []int{1, 2, 4, 8})
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != 4 {
				t.Fatalf("rows = %d", len(rows))
			}
			// The reproduction criterion (DESIGN.md §4): parallel beats
			// sequential and speedup grows with the core count.
			for i := 1; i < len(rows); i++ {
				if rows[i].Speedup <= rows[i-1].Speedup {
					t.Errorf("simulated speedup not increasing: %+v", rows)
				}
			}
			if rows[3].Speedup < wl.floor {
				t.Errorf("8-core simulated speedup = %.2f, below %.1f", rows[3].Speedup, wl.floor)
			}
			if rows[3].Speedup > 8.0 {
				t.Errorf("8-core simulated speedup = %.2f, superlinear is impossible here", rows[3].Speedup)
			}
			if rows[3].Efficiency > 1.0 {
				t.Errorf("efficiency > 100%%: %+v", rows[3])
			}
		})
	}
}

func TestTSPCoordsDeterministic(t *testing.T) {
	a := TSPSource(9, 2)
	b := TSPSource(9, 2)
	if a != b {
		t.Error("TSP source not deterministic")
	}
	// Different n gives a different instance, same prefix coordinates.
	if TSPSource(9, 2) == TSPSource(10, 2) {
		t.Error("instance should depend on n")
	}
}

func TestRunOnceReportsErrors(t *testing.T) {
	if _, err := RunOnce("bad.ttr", "def main(:\n", Interp); err == nil {
		t.Error("compile error not propagated")
	}
	if _, err := RunOnce("bad.ttr", "def main():\n    x = 0\n    print(1 / x)\n", VM); err == nil {
		t.Error("runtime error not propagated")
	}
}
