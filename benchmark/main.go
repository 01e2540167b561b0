// Command benchmark is the one benchmark of Tetra-Go: seven named
// workloads, end-to-end metrics with tracing off and per-layer metrics
// from a separate traced run. See README.md beside this file and
// BENCHMARK.json at the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "run one workload (default: all seven)")
		seed    = flag.Int64("seed", 1, "seed the inputs are generated from")
		seconds = flag.Float64("seconds", 12, "length of one run's measured part")
		trace   = flag.Int("trace", 0, "1 = traced run: per-layer metrics and span files; 0 = end-to-end metrics, tracing off")
		repeat  = flag.Int("repeat", 0, "run every workload this many times (seed, seed+1, ...) in alternating order and judge each end-to-end metric against its bound")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	os.Exit(run(*name, *seed, *seconds, *trace != 0, *repeat))
}

func run(name string, seed int64, seconds float64, traced bool, repeat int) (code int) {
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	// A signal stops every daemon before the process dies; so does any
	// return from this function.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		stopAll()
		os.Exit(130)
	}()
	defer func() {
		err := stopAll()
		if err == nil {
			err = leftoverChildren()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			code = 1
		}
	}()

	set := workloads
	if name != "" {
		w, ok := workloadByName(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", name)
			return 2
		}
		set = []workload{w}
	}
	d := time.Duration(seconds * float64(time.Second))
	if repeat > 0 {
		return runRepeat(root, set, seed, d, repeat)
	}

	var results []*result
	for _, w := range set {
		r, err := runWorkload(root, w, seed, options{d: d, setups: setups, setupTime: batchSetupTime, traced: traced})
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		r.printTable(os.Stdout)
		results = append(results, r)
		if r.failed > 0 {
			code = 1
		}
	}
	if err := writeRows(root, results, traced); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if name != "" {
		// The contract's result object is the last line of stdout.
		fmt.Println(results[0].jsonLine())
	}
	return code
}

// setups is how many times a run sets the workload up from nothing, at
// least; setup_s is the median, the measured part uses the last one.
const (
	setups         = 3
	batchSetupTime = 1500 * time.Millisecond
)

// options are what one run of one workload needs besides its inputs.
type options struct {
	d         time.Duration // length of the measured part
	setups    int           // complete set-ups per run, at least
	setupTime time.Duration // a batch workload repeats its set-up until this much went into it
	traced    bool
}

// runWorkload is one run of one workload, traced or not.
func runWorkload(root string, w workload, seed int64, o options) (*result, error) {
	nproc := runtime.NumCPU()
	r := &result{workload: w.name, seed: seed, traced: o.traced}
	if o.traced {
		if err := runTraced(root, w, seed, o.d, nproc, r); err != nil {
			return nil, err
		}
		return r, r.check()
	}
	var setupS []float64
	ref := &hostRef{}
	switch w.kind {
	case kindServe:
		var s *serving
		for i := 0; i < o.setups; i++ {
			if s != nil {
				if err := s.d.stop(); err != nil {
					return nil, err
				}
			}
			start := time.Now()
			var err error
			if s, _, err = setupServe(root, w, seed, nproc); err != nil {
				return nil, err
			}
			setupS = append(setupS, time.Since(start).Seconds())
			ref.sample(2)
		}
		s.measure(o.d, r, ref)
		if err := s.d.stop(); err != nil {
			return nil, err
		}
	default:
		// A batch set-up can take 20 ms: it is repeated until its median
		// has a second and a half of work behind it.
		var b *batch
		for begin := time.Now(); len(setupS) < o.setups || time.Since(begin) < o.setupTime; {
			start := time.Now()
			var err error
			if b, err = setupBatch(w, seed, nproc); err != nil {
				return nil, err
			}
			setupS = append(setupS, time.Since(start).Seconds())
			ref.sample(2)
		}
		b.measure(o.d, r, ref)
	}
	r.set("setup_s", timing(setupS))
	if err := r.check(); err != nil {
		return nil, err
	}
	r.scaleToQuietHost(ref)
	return r, nil
}

// envelope says where and on what the numbers were taken.
type envelope struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	HostCPU    string `json:"host_cpu"`
	NativeSeen bool   `json:"native_reply_seen"`
	Traced     bool   `json:"traced"`
	Seed       int64  `json:"seed"`
	Rows       []row  `json:"rows"`
}

// writeRows writes the rows just printed to benchmark/out/ as JSON.
func writeRows(root string, results []*result, traced bool) error {
	env := envelope{
		Commit:     gitCommit(root),
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		HostCPU:    hostCPU(),
		Traced:     traced,
	}
	for _, r := range results {
		env.Seed = r.seed
		env.NativeSeen = env.NativeSeen || r.native
		env.Rows = append(env.Rows, r.rows()...)
	}
	data, err := json.MarshalIndent(env, "", " ")
	if err != nil {
		return err
	}
	dir := filepath.Join(root, "benchmark", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	file := "end_to_end.json"
	if traced {
		file = "per_layer.json"
	}
	if len(results) == 1 {
		file = results[0].workload + "-" + file
	}
	return os.WriteFile(filepath.Join(dir, file), append(data, '\n'), 0o644)
}
