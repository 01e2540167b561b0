package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/guard"
	"repro/internal/promote"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/worker"
)

// prepare compiles a program once and returns the function that runs it
// under the given limits and checks its output, so a probe times the
// engine only.
func prepare(p Program, vm bool) (run func(lim guard.Limits) error, err error) {
	ast, err := core.Compile(p.Name+".ttr", p.Source)
	if err != nil {
		return nil, err
	}
	var bc *bytecode.Program
	if vm {
		if bc, err = core.CompileBytecodeOpt(ast, bytecode.DefaultLevel); err != nil {
			return nil, err
		}
	}
	return func(lim guard.Limits) error {
		var out bytes.Buffer
		cfg := core.Config{Stdin: strings.NewReader(p.Stdin), Stdout: &out, Limits: lim}
		var err error
		if vm {
			err = core.NewVM(bc, cfg).Run()
		} else {
			err = core.NewInterp(ast, cfg).Run()
		}
		if err == nil && out.String() != p.Want {
			err = fmt.Errorf("%s printed %q, want %q", p.Name, out.String(), p.Want)
		}
		return err
	}, nil
}

// timeEngine times New+Run of p on one engine over about budget and
// counts the heap allocations of one more run.
func (t *tracer) timeEngine(name string, p Program, vm bool, budget time.Duration) (ds []time.Duration, mallocs float64, err error) {
	run, err := prepare(p, vm)
	if err != nil {
		return nil, 0, err
	}
	none := guard.Limits{}
	if ds, err = t.probe(name, budget, 3, func() error { return run(none) }); err != nil {
		return nil, 0, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = run(none)
	runtime.ReadMemStats(&after)
	return ds, float64(after.Mallocs - before.Mallocs), err
}

// Probe sizes: large enough that one run is milliseconds, small enough
// that a probe fits its slice of the traced run several times.
const (
	probeIters = 100_000
	probeCalls = 30_000 // iterations; two calls each
)

// generousLimits never trip on a probe but switch every governor charge
// point on, which is how the serving path always runs.
var generousLimits = guard.Limits{
	Deadline:       time.Hour,
	MaxSteps:       1 << 50,
	MaxThreads:     1 << 20,
	MaxOutputBytes: 1 << 30,
	MaxAllocCells:  1 << 40,
}

var emptyMain = Program{Name: "empty", Source: "def main():\n    pass\n"}

// engineProbes isolates the engines' unit costs on programs whose
// iteration and call counts the generator knows: an iteration, a call, a
// start-up, and the governor's share.
func (t *tracer) engineProbes() error {
	loop := seededArith("probe_loop", probeIters, t.seed)
	calls := callLoop("probe_calls", probeCalls, 7)
	budget := t.unit / 2
	// per divides a probe's median by the number of units it ran.
	per := func(ds []time.Duration, units int) sample {
		s := durations(ds, func(d time.Duration) float64 { return float64(d) / float64(units) })
		s.n = units
		return s
	}

	vmLoop, vmLoopMallocs, err := t.timeEngine("probe.vm.loop", loop, true, budget)
	if err != nil {
		return err
	}
	inLoop, _, err := t.timeEngine("probe.interp.loop", loop, false, budget)
	if err != nil {
		return err
	}
	t.r.set("vm.ns_per_iter", per(vmLoop, probeIters))
	t.r.set("vm.mallocs_per_iter", single(vmLoopMallocs/probeIters, probeIters))
	t.r.set("interp.ns_per_iter", per(inLoop, probeIters))

	// The governor's share: the same loop with and without limits,
	// alternating so that drift hits both alike.
	run, err := prepare(loop, true)
	if err != nil {
		return err
	}
	var plain, guarded []time.Duration
	_, err = t.probe("probe.vm.loop_pair", budget, 3, func() error {
		for _, side := range []struct {
			lim guard.Limits
			ds  *[]time.Duration
		}{{guard.Limits{}, &plain}, {generousLimits, &guarded}} {
			t0 := time.Now()
			if err := run(side.lim); err != nil {
				return err
			}
			*side.ds = append(*side.ds, time.Since(t0))
		}
		return nil
	})
	if err != nil {
		return err
	}
	t.r.set("guard.overhead_pct", single(100*float64(medianOf(guarded)-medianOf(plain))/float64(medianOf(plain)), len(plain)))

	vmCall, vmCallMallocs, err := t.timeEngine("probe.vm.calls", calls, true, budget)
	if err != nil {
		return err
	}
	inCall, inCallMallocs, err := t.timeEngine("probe.interp.calls", calls, false, budget)
	if err != nil {
		return err
	}
	const ncalls = 2 * probeCalls
	t.r.set("vm.ns_per_call", per(vmCall, ncalls))
	t.r.set("vm.mallocs_per_call", single(vmCallMallocs/ncalls, ncalls))
	t.r.set("interp.ns_per_call", per(inCall, ncalls))
	t.r.set("interp.mallocs_per_call", single(inCallMallocs/ncalls, ncalls))

	vmStart, _, err := t.timeEngine("probe.vm.startup", emptyMain, true, budget/4)
	if err != nil {
		return err
	}
	inStart, _, err := t.timeEngine("probe.interp.startup", emptyMain, false, budget/4)
	if err != nil {
		return err
	}
	t.r.set("vm.startup_us", durations(vmStart, us))
	t.r.set("interp.startup_us", durations(inStart, us))
	return nil
}

// Probe programs for the parallel runtime.
const (
	parforProbeN = 20_000
	spawnRounds  = 500
	lockProbeN   = 20_000
)

func parforProbe(parallel bool) Program {
	loop := "for"
	if parallel {
		loop = "parallel for"
	}
	return Program{
		Name: "probe_" + strings.ReplaceAll(loop, " ", "_"),
		Source: fmt.Sprintf(`def main():
    out = range(%d)
    %s i in range(%d):
        out[i] = i + 1
    print(out[%d])
`, parforProbeN, loop, parforProbeN, parforProbeN-1),
		Want: fmt.Sprintf("%d\n", parforProbeN),
	}
}

// spawnProbe joins four empty children per round.
var spawnProbe = Program{
	Name: "probe_spawn",
	Source: fmt.Sprintf(`def main():
    r = 0
    while r < %d:
        parallel:
            pass
            pass
            pass
            pass
        r += 1
    print(r)
`, spawnRounds),
	Want: fmt.Sprintf("%d\n", spawnRounds),
}

// lockProbe counts to n under a named lock (or without one) in threads
// parallel threads.
func lockProbe(locked bool, threads int) Program {
	body := "        c[0] += 1\n"
	if locked {
		body = "        lock counter:\n            c[0] += 1\n"
	}
	calls := strings.Repeat(fmt.Sprintf("        spin(c, %d)\n", lockProbeN), threads)
	name := fmt.Sprintf("probe_lock_%v_%d", locked, threads)
	want := fmt.Sprintf("%d\n", lockProbeN*threads)
	if !locked && threads > 1 {
		panic("an unlocked shared counter has no expected value")
	}
	return Program{
		Name: name,
		Source: "def spin(c [int], n int):\n    i = 0\n    while i < n:\n" + body +
			"        i += 1\n\ndef main():\n    c = [0]\n    parallel:\n" + calls + "    print(c[0])\n",
		Want: want,
	}
}

// parallelProbes isolates the parallel runtime's unit costs: what a
// parallel-for iteration adds over a sequential one, the paper's two
// speed-ups, a thread spawn, and a lock acquisition with and without a
// second thread wanting the same lock.
func (t *tracer) parallelProbes() error {
	budget := t.unit / 2
	med := func(name string, p Program, vm bool) (time.Duration, error) {
		ds, _, err := t.timeEngine(name, p, vm, budget)
		return medianOf(ds), err
	}

	seq, err := med("probe.vm.for", parforProbe(false), true)
	if err != nil {
		return err
	}
	par, err := med("probe.vm.parfor", parforProbe(true), true)
	if err != nil {
		return err
	}
	t.r.set("sched.parfor_ns_per_iter", single(float64(par-seq)/parforProbeN, parforProbeN))

	speedup := func(name string, one, many Program) error {
		t1, err := med("probe.vm."+name+"_w1", one, true)
		if err != nil {
			return err
		}
		tn, err := med("probe.vm."+name+"_wn", many, true)
		if err != nil {
			return err
		}
		s := single(float64(t1)/float64(tn), 1)
		s.note = fmt.Sprintf("nproc=%d", t.nproc)
		t.r.set("sched.speedup_"+name, s)
		return nil
	}
	if err := speedup("primes", primesParallel(primesParLim, 1), primesParallel(primesParLim, t.nproc)); err != nil {
		return err
	}
	if err := speedup("tsp", tspParallel(tspN, 1), tspParallel(tspN, t.nproc)); err != nil {
		return err
	}

	for _, e := range []struct {
		name string
		vm   bool
	}{{"vm", true}, {"interp", false}} {
		spawn, err := med("probe."+e.name+".spawn", spawnProbe, e.vm)
		if err != nil {
			return err
		}
		t.r.set(e.name+".spawn_us_per_thread", single(us(spawn)/(4*spawnRounds), 4*spawnRounds))

		// A lock's cost is the wall time it adds per acquisition over
		// the same loop without the lock.
		free, err := med("probe."+e.name+".nolock", lockProbe(false, 1), e.vm)
		if err != nil {
			return err
		}
		alone, err := med("probe."+e.name+".lock_alone", lockProbe(true, 1), e.vm)
		if err != nil {
			return err
		}
		fought, err := med("probe."+e.name+".lock_fought", lockProbe(true, 2), e.vm)
		if err != nil {
			return err
		}
		t.r.set(e.name+".lock_ns_uncontended", single(float64(alone-free)/lockProbeN, lockProbeN))
		t.r.set(e.name+".lock_ns_contended", single(float64(fought-free)/(2*lockProbeN), 2*lockProbeN))
	}
	return nil
}

// servingProbes takes the serving path apart. The stream is the
// workload's own on serve_*, serve_hot's on the batch workloads.
func (t *tracer) servingProbes() error {
	w := t.w
	if w.kind != kindServe {
		w, _ = workloadByName("serve_hot")
	}
	s, warm, err := setupServe(t.root, w, t.seed, t.nproc)
	if err != nil {
		return err
	}
	defer s.d.stop()
	t.r.attempted += warm.attempted

	// The floor: an HTTP exchange that does nothing.
	hc := &http.Client{Timeout: 10 * time.Second}
	floor, err := t.probe("server.healthz", t.unit/4, 50, func() error {
		resp, err := hc.Get(s.d.url + "/healthz/live")
		if err != nil {
			return err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return err
	})
	hc.CloseIdleConnections()
	if err != nil {
		return err
	}
	t.r.set("server.http_floor_ms", durations(floor, ms))

	// One client, recorder off then on: what a request costs beyond the
	// compile and run its reply reports, and what recording costs.
	plain := s.closedLoop(t.unit, 1, s.d.url, nil)
	traced := s.closedLoop(2*t.unit, 1, s.d.url, t.rec)
	if traced.correct == 0 || plain.correct == 0 {
		return errors.New("no probe request succeeded")
	}
	t.r.set("server.overhead_ms", single(median(traced.beyond), len(traced.beyond)))

	// The open loop at the workload's rate, recorder on: the tail, the
	// generator's own lateness, which tier answered, what the replies
	// reported.
	lat, late, open := s.openLoop(4*t.unit, t.rec)
	if w.name == t.w.name {
		// On a serving workload the request is the operation: its layers
		// are the compile and the run the reply reports and, as the
		// request span's self time, everything else.
		spans := t.rec.snapshot()
		self := selfTimes(spans)
		var requests time.Duration
		for _, sp := range spans {
			if sp.Name == "client.request" {
				requests += time.Duration(sp.End - sp.Start)
			}
		}
		parts := self["client.request"] + self["server.compile"] + self["server.run"]
		t.r.set("trace.layer_sum_pct", single(100*float64(parts)/float64(requests), len(lat)+len(traced.walls)))
		t.r.set("trace.overhead_pct", single(100*(median(traced.walls)-median(plain.walls))/median(plain.walls), len(traced.walls)))
	}
	t.r.set("client.latency_p95_ms", single(percentile(lat, 95), len(lat)))
	t.r.set("client.latency_p99_ms", single(percentile(lat, 99), len(lat)))
	t.r.set("client.late_ms_p95", single(percentile(late, 95), len(late)))
	t.r.set("client.over_limit_share", single(float64(open.overLimit)/float64(max(open.correct, 1)), open.correct))
	total := open
	total.merge(plain.tally)
	total.merge(traced.tally)
	ok := float64(max(total.correct, 1))
	t.r.set("server.reported_compile_us", sample{value: float64(total.compileUS+warm.compileUS) / float64(max(total.correct+warm.correct, 1)),
		n: total.correct + warm.correct, note: "mean, warm-up included"})
	t.r.set("server.reported_run_us", sample{value: float64(total.runUS) / ok, n: total.correct, note: "mean"})
	t.r.set("server.cache_hit_share", single(float64(total.cacheHits)/ok, total.correct))
	t.r.set("server.tier_share_native", single(total.share("native"), total.correct))
	t.r.set("server.tier_share_worker", single(total.share("worker"), total.correct))
	t.r.set("server.tier_share_inproc", single(total.share("inproc"), total.correct))
	t.r.attempted += total.attempted
	t.r.failed += total.failed() + warm.failed()
	t.r.native = total.tiers["native"] > 0

	// The server's own counters; one it does not report reads as 0.
	m, err := fetchMetrics(s.d.url)
	if err != nil {
		return err
	}
	for name, path := range map[string][]string{
		"server.rejected_429": {"rejected_429"},
		"server.fallbacks":    {"fallbacks"},
		"worker.spawns":       {"worker", "spawns"},
		"worker.crashes":      {"worker", "crashes"},
		"worker.retries":      {"worker", "retries"},
		"native.spawns":       {"native", "spawns"},
		"promote.builds":      {"promote", "builds"},
		"promote.tracked":     {"promote", "tracked"},
	} {
		v, ok := m.num(path...)
		smp := sample{value: v, n: 1, q1: v, q3: v}
		if !ok {
			smp.note = "not reported by the server"
		}
		t.r.set(name, smp)
	}

	if err := t.processBoundaries(s); err != nil {
		return err
	}
	return t.routerProbes(s)
}

// processBoundaries times one request on each execution tier by that
// tier's public entry point, so the cost of each process boundary is the
// difference between two rows.
func (t *tracer) processBoundaries(s *serving) error {
	first := s.reqs(0)
	decoded, err := server.DecodeRunRequest(first.body)
	if err != nil {
		return err
	}
	decode, err := t.probe("server.decode", t.unit/4, 100, func() error {
		_, err := server.DecodeRunRequest(first.body)
		return err
	})
	if err != nil {
		return err
	}
	t.r.set("server.decode_us", durations(decode, us))

	// The request as tetrad hands it to a tier: under the server's
	// ceiling, full optimisation.
	wreq := &worker.Request{
		Source:  decoded.Source,
		File:    decoded.File,
		Stdin:   decoded.Stdin,
		Backend: decoded.Backend,
		Opt:     bytecode.DefaultLevel,
		Limits:  guard.Limits{}.WithSandboxDefaults(),
	}
	checkResp := func(resp *worker.Response, err error) error {
		if err != nil {
			return err
		}
		if !resp.OK || resp.Stdout != first.want {
			return fmt.Errorf("tier answered ok=%v %q (%s), want %q", resp.OK, resp.Stdout, resp.ErrMessage, first.want)
		}
		return nil
	}

	// In this process, warm cache.
	cache := core.NewCompileCache(0)
	if err := checkResp(worker.Execute(wreq, cache), nil); err != nil {
		return err
	}
	inproc, err := t.probe("worker.execute", t.unit/2, 20, func() error {
		return checkResp(worker.Execute(wreq, cache), nil)
	})
	if err != nil {
		return err
	}
	t.r.set("worker.exec_inproc_us", durations(inproc, us))

	// Through a pooled worker process, warm.
	pool := worker.NewPool(worker.Options{Cmd: []string{daemonPath(t.root, "tetrad"), "-worker"}, Size: 1})
	defer pool.Close()
	// The first request waits for the worker to start and warms its
	// private compile cache.
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := pool.Run(wreq, worker.RunInfo{})
		if !errors.Is(err, worker.ErrExhausted) || time.Now().After(deadline) {
			if err := checkResp(resp, err); err != nil {
				return fmt.Errorf("worker pool: %w", err)
			}
			break
		}
	}
	rtt, err := t.probe("worker.pool_run", t.unit/2, 20, func() error {
		return checkResp(pool.Run(wreq, worker.RunInfo{}))
	})
	if err != nil {
		return err
	}
	t.r.set("worker.pool_rtt_us", durations(rtt, us))
	t.r.set("worker.pool_added_us", single(us(medianOf(rtt)-medianOf(inproc)), len(rtt)))

	return t.nativeTier(s, wreq, checkResp)
}

// nativeTier promotes the request's program the way tetrad does and runs
// the artifact as a one-shot process; then it does the same with a
// program whose main is empty, whose round trip is everything the tier
// adds to a request's compute: fork, exec, runtime start, pipes, reaping.
func (t *tracer) nativeTier(s *serving, wreq *worker.Request, checkResp func(*worker.Response, error) error) error {
	dir, err := os.MkdirTemp(filepath.Join(t.root, buildDir, "tmp"), "native-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	pm := promote.New(promote.Config{BuildDir: dir})
	defer pm.Close()
	runner := worker.NewNativeRunner(worker.NativeOptions{})
	defer runner.Close()
	if !pm.Enabled() {
		// No toolchain or no module: the tier does not exist here.
		for _, name := range []string{"promote.build_wait_s", "native.run_rtt_us", "native.added_us"} {
			t.r.set(name, sample{note: "native tier unavailable"})
		}
		return nil
	}
	// promoted returns the artifact for (file, src), crossing the
	// promotion threshold and waiting for the build.
	promoted := func(file, src string) (string, time.Duration, error) {
		for i := 0; i < nativeThreshold; i++ {
			pm.Observe(file, src)
		}
		crossed := time.Now()
		id := t.rec.begin("promote.build", -1, 0)
		defer t.rec.end(id)
		for {
			if bin, ok := pm.Artifact(file, src); ok {
				return bin, time.Since(crossed), nil
			}
			if st := pm.Stats(); st.BuildFailures+st.CompileFailures > 0 {
				return "", 0, fmt.Errorf("promotion of %s failed", file)
			}
			if time.Since(crossed) > 2*time.Minute {
				return "", 0, fmt.Errorf("promotion of %s did not finish in 2 minutes", file)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	bin, wait, err := promoted(wreq.File, wreq.Source)
	if err != nil {
		return err
	}
	// The wait tetrad's clients saw in warm-up is the cold one; this
	// process's own build usually finds the Go build cache warm.
	if s.buildWait > 0 {
		wait = s.buildWait
	}
	t.r.set("promote.build_wait_s", sample{value: wait.Seconds(), n: 1, note: "promotion threshold crossed to artifact serving"})

	hash := promote.Key(wreq.File, wreq.Source)
	nrtt, err := t.probe("native.run", t.unit/2, 20, func() error {
		return checkResp(runner.Run(bin, wreq, worker.RunInfo{Hash: hash}))
	})
	if err != nil {
		return err
	}
	t.r.set("native.run_rtt_us", durations(nrtt, us))

	empty := *wreq
	empty.File, empty.Source, empty.Stdin = "empty.ttr", emptyMain.Source, ""
	bin, _, err = promoted(empty.File, empty.Source)
	if err != nil {
		return err
	}
	floor, err := t.probe("native.run_empty", t.unit/2, 20, func() error {
		resp, err := runner.Run(bin, &empty, worker.RunInfo{})
		if err == nil && (!resp.OK || resp.Stdout != "") {
			err = fmt.Errorf("empty artifact answered ok=%v %q", resp.OK, resp.Stdout)
		}
		return err
	})
	if err != nil {
		return err
	}
	s2 := durations(floor, us)
	s2.note = "round trip of an artifact whose main is empty"
	t.r.set("native.added_us", s2)
	return nil
}

// routerProbes puts tetrarouter in front of the tetrad the stream already
// warmed, and then in front of two, to see what a hop costs and whether a
// program's requests stay on one backend.
func (t *tracer) routerProbes(s *serving) error {
	ring := router.NewRing(0)
	ring.Add("a", 1)
	ring.Add("b", 1)
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = core.CacheKey("prog.ttr", fmt.Sprintf("# %d\n", i), bytecode.DefaultLevel)
	}
	const lookups = 100_000
	start := time.Now()
	for i := 0; i < lookups; i++ {
		ring.Lookup(keys[i%len(keys)], 1)
	}
	t.r.set("router.ring_lookup_ns", single(float64(time.Since(start))/lookups, lookups))

	// One hop: the same stream, same tetrad, direct and through a router.
	front, err := startDaemon(t.root, "tetrarouter", "-backends", s.d.url)
	if err != nil {
		return err
	}
	defer front.stop()
	direct := s.closedLoop(t.unit, 1, s.d.url, nil)
	routed := s.closedLoop(t.unit, 1, front.url, nil)
	t.r.set("router.added_p50_ms", single(median(routed.walls)-median(direct.walls), len(routed.walls)))
	t.r.attempted += direct.attempted + routed.attempted
	t.r.failed += direct.failed() + routed.failed()
	if err := front.stop(); err != nil {
		return err
	}

	// Affinity: two backends, distinct programs each sent several times.
	second, err := startDaemon(t.root, "tetrad")
	if err != nil {
		return err
	}
	defer second.stop()
	front2, err := startDaemon(t.root, "tetrarouter", "-backends", s.d.url+","+second.url)
	if err != nil {
		return err
	}
	defer front2.stop()
	fresh, _ := workloadByName("serve_fresh")
	reqs, err := fresh.requests(t.seed)
	if err != nil {
		return err
	}
	c := newClient(front2.url, 1, nil)
	defer c.close()
	const programs, repeats = 24, 4
	onOne, sent := 0, 0
	for p := 0; p < programs; p++ {
		seen := make(map[string]int)
		for i := 0; i < repeats; i++ {
			o := c.do(p, reqs(p))
			t.r.attempted++
			if !o.correct {
				t.r.failed++
				continue
			}
			seen[o.backend]++
			sent++
		}
		most := 0
		for _, n := range seen {
			most = max(most, n)
		}
		onOne += most
	}
	t.r.set("router.affinity_share", single(float64(onOne)/float64(max(sent, 1)), sent))
	if err := front2.stop(); err != nil {
		return err
	}
	return second.stop()
}
