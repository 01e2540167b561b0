package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
	"time"
)

// runRepeat is the repeatability tool: it runs every workload n times,
// round r with seed+r and every other round in reverse order, and judges
// each end-to-end metric on each workload the way the driver does: the
// distance between the quartiles of the n values, as a share of their
// median, must stay within the metric's bound. Each run is a process of
// its own, as under the driver; in one shared process the batch
// workloads' rss_mb would depend on what ran before them.
func runRepeat(root string, set []workload, seed int64, d time.Duration, n int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	values := make(map[string]map[string][]float64) // workload → metric → one value per round
	for round := 0; round < n; round++ {
		order := append([]workload(nil), set...)
		if round%2 == 1 {
			slices.Reverse(order)
		}
		for _, w := range order {
			cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(seed+int64(round)),
				"-seconds", fmt.Sprint(d.Seconds()), "-trace", "0")
			cmd.Dir = root
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
				return 1
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var line struct {
				Metrics map[string]struct{ Value float64 }
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: result line: %v\n", w.name, err)
				return 1
			}
			if values[w.name] == nil {
				values[w.name] = make(map[string][]float64)
			}
			for _, m := range endToEnd {
				values[w.name][m.name] = append(values[w.name][m.name], line.Metrics[m.name].Value)
			}
			fmt.Fprintf(os.Stderr, "round %d/%d %s done\n", round+1, n, w.name)
		}
	}
	fmt.Printf("repeatability: %d rounds, seeds %d..%d, %s measured per run, commit %s, %s, nproc %d\n",
		n, seed, seed+int64(n)-1, d, gitCommit(root), hostCPU(), runtime.NumCPU())
	fmt.Printf("%-13s %-15s %12s %9s %7s  %s\n", "workload", "metric", "median", "spread", "bound", "verdict  values")
	code := 0
	for _, w := range set {
		for _, m := range endToEnd {
			vs := values[w.name][m.name]
			sp := spread(vs)
			if len(vs) == 2 { // quartiles of two values extrapolate; compare them directly
				sp = math.Abs(vs[0]-vs[1]) / median(vs)
			}
			verdict := "PASS"
			// setup_s is exempt from the spread rule in the driver too: it
			// is judged on its median only.
			if sp > m.bound && m.name != "setup_s" {
				verdict = "FAIL"
				code = 1
			}
			strs := make([]string, len(vs))
			for i, v := range vs {
				strs[i] = fmt.Sprintf("%.5g", v)
			}
			fmt.Printf("%-13s %-15s %12.6g %8.2f%% %6.0f%%  %s     %s\n",
				w.name, m.name, median(vs), sp*100, m.bound*100, verdict, strings.Join(strs, " "))
		}
	}
	return code
}

// gitCommit names the commit measured, "unknown" outside a git checkout.
func gitCommit(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func hostCPU() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
