package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// metric declares one number the benchmark prints. BENCHMARK.json repeats
// name, unit, better and bound; the test keeps the two in step. moves
// says which end-to-end metric on which workload a layer metric is
// expected to move; README.md has the full prediction table.
type metric struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
	scale  scaling // end-to-end only: how the host's slow-down enters, see hostref.go
	moves  string
}

type scaling int

const (
	unscaled scaling = iota // memory
	timeLike                // longer on a slow host: divided by the slow-down
	rateLike                // lower on a slow host: multiplied by it
)

// Every workload reports every end-to-end metric, because the contract
// wants one metric set per run. What an "operation" is depends on the
// kind of workload:
//
//	run_*         one pass = every program of the workload once, source to
//	              output, through tetra.Compile + Program.RunVM
//	compile_cold  one pass = the whole corpus through core.Compile +
//	              core.CompileBytecodeOpt
//	serve_*       one POST /run against tetrad
//
// The time-like values are scaled to the quiet reference host (see
// hostref.go). Even so, ten runs with ten seeds put the quartiles of
// op_p50_ms, throughput_ops and cpu_ms_per_op up to 17 % of the median
// apart on the serving workloads (out/repeat-HEAD.txt), and a bound has
// to clear that noise, so they take the widest bound the contract allows.
//
// There is no tail-latency row. The p95 of the open loop is printed under
// every table, but between runs of unchanged code it moved by 15 to 40 %
// on the reference host, scaled or not: there it measures the
// neighbours, and no bound could be put on it.
var endToEnd = []metric{
	{name: "op_p50_ms", unit: "ms", better: "lower", bound: 0.25, scale: timeLike},
	{name: "throughput_ops", unit: "1/s", better: "higher", bound: 0.25, scale: rateLike},
	{name: "cpu_ms_per_op", unit: "ms", better: "lower", bound: 0.25, scale: timeLike},
	{name: "rss_mb", unit: "MiB", better: "lower", bound: 0.15},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, scale: timeLike},
}

var perLayer = []metric{
	// Compile path, over the workload's own sources, per pass.
	{name: "lexer.busy_ms", unit: "ms", better: "lower", moves: "op_p50_ms on compile_cold; op_p50_ms on serve_fresh"},
	{name: "lexer.tokens", unit: "count", better: "lower", moves: "none: size of the input"},
	{name: "lexer.mtokens_per_s", unit: "Mtok/s", better: "higher", moves: "op_p50_ms on compile_cold"},
	{name: "parser.busy_ms", unit: "ms", better: "lower", moves: "op_p50_ms on compile_cold; op_p50_ms on serve_fresh"},
	{name: "check.busy_ms", unit: "ms", better: "lower", moves: "op_p50_ms on compile_cold; op_p50_ms on serve_fresh"},
	{name: "bytecode.compile_busy_ms", unit: "ms", better: "lower", moves: "op_p50_ms on compile_cold"},
	{name: "bytecode.instrs_o0", unit: "count", better: "lower", moves: "bytecode.optimize_busy_ms"},
	{name: "bytecode.optimize_busy_ms", unit: "ms", better: "lower", moves: "op_p50_ms on compile_cold"},
	{name: "bytecode.instrs_o2", unit: "count", better: "lower", moves: "op_p50_ms on run_loops"},
	{name: "bytecode.fused_instrs", unit: "count", better: "higher", moves: "op_p50_ms on run_loops"},
	{name: "core.cache_miss_us", unit: "us", better: "lower", moves: "op_p50_ms on serve_fresh"},
	{name: "core.cache_hit_us", unit: "us", better: "lower", moves: "op_p50_ms on serve_hot before promotion"},
	{name: "gogen.generate_busy_ms", unit: "ms", better: "lower", moves: "setup_s on serve_hot and serve_heavy"},
	// Engines: busy time on the workload's own programs, the rest on
	// fixed probe programs whose iteration and call counts are known.
	{name: "vm.run_busy_ms", unit: "ms", better: "lower", moves: "op_p50_ms on run_*"},
	{name: "interp.run_busy_ms", unit: "ms", better: "lower", moves: "throughput_ops on run_*"},
	{name: "vm.ns_per_iter", unit: "ns", better: "lower", moves: "op_p50_ms on run_loops and serve_heavy; none on serve_hot"},
	{name: "vm.mallocs_per_iter", unit: "count", better: "lower", moves: "rss_mb on run_loops"},
	{name: "interp.ns_per_iter", unit: "ns", better: "lower", moves: "throughput_ops on run_loops"},
	{name: "guard.overhead_pct", unit: "%", better: "lower", moves: "cpu_ms_per_op on serve_heavy"},
	{name: "vm.ns_per_call", unit: "ns", better: "lower", moves: "op_p50_ms on run_calls; none on run_loops"},
	{name: "vm.mallocs_per_call", unit: "count", better: "lower", moves: "op_p50_ms on run_calls"},
	{name: "interp.ns_per_call", unit: "ns", better: "lower", moves: "throughput_ops on run_calls"},
	{name: "interp.mallocs_per_call", unit: "count", better: "lower", moves: "throughput_ops on run_calls"},
	{name: "vm.startup_us", unit: "us", better: "lower", moves: "op_p50_ms on serve_hot before promotion and serve_fresh"},
	{name: "interp.startup_us", unit: "us", better: "lower", moves: "op_p50_ms on serve_fresh"},
	// Parallel runtime, fixed probe programs.
	{name: "sched.parfor_ns_per_iter", unit: "ns", better: "lower", moves: "op_p50_ms on run_parallel"},
	{name: "sched.speedup_primes", unit: "x", better: "higher", moves: "op_p50_ms on run_parallel"},
	{name: "sched.speedup_tsp", unit: "x", better: "higher", moves: "op_p50_ms on run_parallel"},
	{name: "vm.spawn_us_per_thread", unit: "us", better: "lower", moves: "op_p50_ms on run_parallel"},
	{name: "interp.spawn_us_per_thread", unit: "us", better: "lower", moves: "throughput_ops on run_parallel"},
	{name: "vm.lock_ns_uncontended", unit: "ns", better: "lower", moves: "op_p50_ms on run_parallel"},
	{name: "vm.lock_ns_contended", unit: "ns", better: "lower", moves: "op_p50_ms on run_parallel"},
	{name: "interp.lock_ns_uncontended", unit: "ns", better: "lower", moves: "throughput_ops on run_parallel"},
	{name: "interp.lock_ns_contended", unit: "ns", better: "lower", moves: "throughput_ops on run_parallel"},
	// Serving: a probe stream against a fresh tetrad (the workload's own
	// requests on serve_*, serve_hot's on the batch workloads).
	{name: "server.http_floor_ms", unit: "ms", better: "lower", moves: "op_p50_ms on serve_*"},
	{name: "server.decode_us", unit: "us", better: "lower", moves: "cpu_ms_per_op on serve_*"},
	{name: "server.overhead_ms", unit: "ms", better: "lower", moves: "op_p50_ms and throughput_ops on serve_hot"},
	{name: "server.reported_compile_us", unit: "us", better: "lower", moves: "op_p50_ms on serve_fresh"},
	{name: "server.reported_run_us", unit: "us", better: "lower", moves: "op_p50_ms on serve_heavy"},
	{name: "server.cache_hit_share", unit: "share", better: "higher", moves: "none: 1 on serve_hot, 0 on serve_fresh"},
	{name: "server.tier_share_native", unit: "share", better: "higher", moves: "none: which tier answered"},
	{name: "server.tier_share_worker", unit: "share", better: "higher", moves: "none: which tier answered"},
	{name: "server.tier_share_inproc", unit: "share", better: "lower", moves: "none: which tier answered"},
	{name: "server.rejected_429", unit: "count", better: "lower", moves: "failed operations on serve_*"},
	{name: "server.fallbacks", unit: "count", better: "lower", moves: "the latency tail on serve_* (printed, not judged)"},
	{name: "worker.spawns", unit: "count", better: "lower", moves: "setup_s on serve_*"},
	{name: "worker.crashes", unit: "count", better: "lower", moves: "failed operations on serve_*"},
	{name: "worker.retries", unit: "count", better: "lower", moves: "the latency tail on serve_* (printed, not judged)"},
	{name: "native.spawns", unit: "count", better: "lower", moves: "cpu_ms_per_op on serve_hot"},
	{name: "promote.builds", unit: "count", better: "lower", moves: "setup_s on serve_hot and serve_heavy"},
	{name: "promote.tracked", unit: "count", better: "lower", moves: "rss_mb on serve_fresh"},
	{name: "promote.build_wait_s", unit: "s", better: "lower", moves: "setup_s on serve_hot and serve_heavy"},
	{name: "worker.exec_inproc_us", unit: "us", better: "lower", moves: "op_p50_ms on serve_fresh"},
	{name: "worker.pool_rtt_us", unit: "us", better: "lower", moves: "op_p50_ms on serve_fresh"},
	{name: "worker.pool_added_us", unit: "us", better: "lower", moves: "op_p50_ms on serve_fresh; serve_hot once nothing is promoted"},
	{name: "native.run_rtt_us", unit: "us", better: "lower", moves: "op_p50_ms on serve_hot and serve_heavy"},
	{name: "native.added_us", unit: "us", better: "lower", moves: "op_p50_ms on serve_hot a lot, serve_heavy a little"},
	{name: "router.ring_lookup_ns", unit: "ns", better: "lower", moves: "router.added_p50_ms"},
	{name: "router.added_p50_ms", unit: "ms", better: "lower", moves: "none of the seven workloads: they talk to tetrad directly"},
	{name: "router.affinity_share", unit: "share", better: "higher", moves: "server.cache_hit_share behind a router"},
	{name: "client.latency_p95_ms", unit: "ms", better: "lower", moves: "the latency tail on serve_* (printed, not judged)"},
	{name: "client.latency_p99_ms", unit: "ms", better: "lower", moves: "the latency tail on serve_* (printed, not judged)"},
	{name: "client.late_ms_p95", unit: "ms", better: "lower", moves: "none: how late the generator itself ran"},
	{name: "client.over_limit_share", unit: "share", better: "lower", moves: "none: replies later than the workload's latency limit"},
	// The trace itself.
	{name: "trace.overhead_pct", unit: "%", better: "lower", moves: "none: cost of recording spans"},
	{name: "trace.layer_sum_pct", unit: "%", better: "higher", moves: "none: layer self times as a share of the untraced operation"},
	{name: "trace.spans", unit: "count", better: "lower", moves: "none"},
}

// sample is one measured metric: its value, how many observations are
// behind it, and their quartiles where there is more than one.
type sample struct {
	value  float64
	n      int
	q1, q3 float64
	raw    float64 // end-to-end only: value before scaling to the quiet reference host
	note   string
}

// timing summarises a set of per-operation times as a median sample.
func timing(vs []float64) sample {
	q1, q3 := quartiles(vs)
	return sample{value: median(vs), n: len(vs), q1: q1, q3: q3}
}

// meanSample summarises observations by their mean, for quantities where
// a few large values are the point (a cold compile among cached ones).
func meanSample(vs []float64, note string) sample {
	q1, q3 := quartiles(vs)
	return sample{value: mean(vs), n: len(vs), q1: q1, q3: q3, note: note}
}

func single(v float64, n int) sample { return sample{value: v, n: n, q1: v, q3: v} }

// result is everything one run of one workload produced.
type result struct {
	workload  string
	seed      int64
	traced    bool
	attempted int
	failed    int
	metrics   map[string]sample
	notes     []string
	native    bool // a reply from the native tier was seen
}

func (r *result) set(name string, s sample) {
	if r.metrics == nil {
		r.metrics = make(map[string]sample)
	}
	r.metrics[name] = s
}

// scaleToQuietHost turns the measured end-to-end values into what they
// would have been on the reference host with nothing else contending,
// keeping what was measured as raw.
func (r *result) scaleToQuietHost(ref *hostRef) {
	k := ref.slowdown()
	for _, m := range endToEnd {
		s := r.metrics[m.name]
		s.raw = s.value
		switch m.scale {
		case timeLike:
			s.value, s.q1, s.q3 = s.value/k, s.q1/k, s.q3/k
		case rateLike:
			s.value, s.q1, s.q3 = s.value*k, s.q1*k, s.q3*k
		}
		r.metrics[m.name] = s
	}
	r.notes = append(r.notes, fmt.Sprintf(
		"host: reference kernel %.3f ms mean of %d slices, %.1f ms on the quiet reference host: slow-down %.3f; times are divided by it, rates multiplied, raw = as measured",
		mean(ref.slices), len(ref.slices), refNominalMS, k))
}

func (r *result) declared() []metric {
	if r.traced {
		return perLayer
	}
	return endToEnd
}

// check reports metrics that were declared but not measured, or measured
// but not declared.
func (r *result) check() error {
	want := make(map[string]bool)
	var missing []string
	for _, m := range r.declared() {
		want[m.name] = true
		if _, ok := r.metrics[m.name]; !ok {
			missing = append(missing, m.name)
		}
	}
	var extra []string
	for name := range r.metrics {
		if !want[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	if len(missing)+len(extra) > 0 {
		return fmt.Errorf("%s: metrics missing %v, undeclared %v", r.workload, missing, extra)
	}
	return nil
}

// printTable writes the human-readable rows: every metric by name with
// unit, sample count, quartiles and regression bound.
func (r *result) printTable(w io.Writer) {
	mode := "end-to-end, tracing off"
	if r.traced {
		mode = "per-layer, traced"
	}
	fmt.Fprintf(w, "== %s  seed=%d  %s  attempted=%d failed=%d\n", r.workload, r.seed, mode, r.attempted, r.failed)
	for _, m := range r.declared() {
		s := r.metrics[m.name]
		extra := ""
		if m.bound > 0 {
			extra = fmt.Sprintf("raw=%-10.6g bound %.0f%%", s.raw, m.bound*100)
		}
		fmt.Fprintf(w, "  %-28s %14.6g %-7s n=%-6d q1=%-12.6g q3=%-12.6g %s %s\n",
			m.name, s.value, m.unit, s.n, s.q1, s.q3, extra, s.note)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// jsonLine is the contract's result object: the last line of stdout.
func (r *result) jsonLine() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]value)}
	for _, m := range r.declared() {
		out.Metrics[m.name] = value{r.metrics[m.name].value, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // NaN or Inf: a bug in the benchmark
	}
	return string(b)
}

// row is the machine-readable form of one metric written under out/.
type row struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Value    float64 `json:"value"`
	N        int     `json:"n"`
	Q1       float64 `json:"q1"`
	Q3       float64 `json:"q3"`
	Raw      float64 `json:"raw,omitempty"`
	Bound    float64 `json:"bound,omitempty"`
	Note     string  `json:"note,omitempty"`
}

func (r *result) rows() []row {
	var rows []row
	for _, m := range r.declared() {
		s := r.metrics[m.name]
		rows = append(rows, row{r.workload, m.name, m.unit, s.value, s.n, s.q1, s.q3, s.raw, m.bound, strings.TrimSpace(s.note)})
	}
	return rows
}
