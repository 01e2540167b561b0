package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/ast"
	"repro/internal/bytecode"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/gogen"
	"repro/internal/lexer"
	"repro/internal/parser"
)

// tracer is one traced run: the workload at reduced length with a span
// around every call into a layer, then the layer probes. Per-layer rows
// come only from here; end-to-end rows never do.
type tracer struct {
	root  string
	w     workload
	seed  int64
	nproc int
	unit  time.Duration // a twentieth of the run's length: the time one probe gets
	rec   *recorder
	r     *result
}

// runTraced fills r with every per-layer metric and writes the spans to
// benchmark/out/trace-<workload>.json.
//
// A traced run has two parts. The first is specific to the workload: its
// own programs (for a serving workload, its own request stream and the
// sources inside it) go through each layer's public function with a span
// around the call, once with the recorder off and once with it on. The
// second is the same for every workload: small fixed programs that
// isolate one cost each (an iteration, a call, a spawn, a lock, a process
// boundary). The contract wants every declared metric in every run, so
// the probes run every time; README.md says which workload each row is
// meant to be read on.
func runTraced(root string, w workload, seed int64, d time.Duration, nproc int, r *result) error {
	t := &tracer{root: root, w: w, seed: seed, nproc: nproc, unit: d / 20, rec: newRecorder(), r: r}
	steps := []func() error{t.pipeline, t.engineProbes, t.parallelProbes, t.servingProbes}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	r.set("trace.spans", single(float64(len(t.rec.snapshot())), 1))
	dir := filepath.Join(root, "benchmark", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return t.rec.write(filepath.Join(dir, "trace-"+w.name+".json"))
}

// probeSpans is how many calls of one probe get a span of their own. A
// probe repeats its call thousands of times for a steady median; the
// trace file only needs enough of them to show where they sit.
const probeSpans = 16

// probe calls f until budget is spent, at least minReps times, with a
// span called name around each of the first probeSpans calls, and returns
// every call's duration.
func (t *tracer) probe(name string, budget time.Duration, minReps int, f func() error) ([]time.Duration, error) {
	var ds []time.Duration
	start := time.Now()
	for len(ds) < minReps || time.Since(start) < budget {
		id := -1
		if len(ds) < probeSpans {
			id = t.rec.begin(name, -1, len(ds))
		}
		t0 := time.Now()
		err := f()
		ds = append(ds, time.Since(t0))
		t.rec.end(id)
		if err != nil {
			return nil, err
		}
	}
	t.r.attempted += len(ds)
	return ds, nil
}

// durations summarises call durations, converted by unit, as a median
// sample with quartiles.
func durations(ds []time.Duration, unit func(time.Duration) float64) sample {
	vs := make([]float64, len(ds))
	for i, d := range ds {
		vs[i] = unit(d)
	}
	return timing(vs)
}

func medianOf(ds []time.Duration) time.Duration {
	return time.Duration(durations(ds, func(d time.Duration) float64 { return float64(d) }).value)
}

// path is one way through the layers; its name is the root span's.
type path string

const (
	pathVM      path = "op.vm"      // parse, check, bytecode compile, optimise, run on the VM
	pathInterp  path = "op.interp"  // parse, check, run on the interpreter
	pathCompile path = "op.compile" // the VM path stopped before the engine: compile_cold's operation
)

// layerRun takes one program down one path, each layer by its public
// function with a span around the call, and checks what it printed. It
// returns the sizes the compile path produced.
func layerRun(rec *recorder, op int, p Program, via path) (sz sizes, err error) {
	file := p.Name + ".ttr"
	root := rec.begin(string(via), -1, op)
	defer rec.end(root)

	parse := rec.begin("parser", root, op)
	ast, err := parser.Parse(file, p.Source)
	rec.end(parse)
	if err != nil {
		return sz, err
	}
	id := rec.begin("check", root, op)
	err = check.Check(ast)
	rec.end(id)
	if err != nil {
		return sz, err
	}

	var out bytes.Buffer
	cfg := core.Config{Stdin: strings.NewReader(p.Stdin), Stdout: &out}
	if via == pathInterp {
		id = rec.begin("interp.run", root, op)
		err = core.NewInterp(ast, cfg).Run()
		rec.end(id)
	} else {
		id = rec.begin("bytecode.compile", root, op)
		var bc *bytecode.Program
		bc, err = bytecode.Compile(ast)
		rec.end(id)
		if err != nil {
			return sz, err
		}
		sz.o0 = instrCount(bc)
		id = rec.begin("bytecode.optimize", root, op)
		bc = bytecode.Optimize(bc, bytecode.DefaultLevel)
		rec.end(id)
		sz.o2, sz.fused = instrCount(bc), fusedCount(bc)
		if via == pathVM {
			id = rec.begin("vm.run", root, op)
			err = core.NewVM(bc, cfg).Run()
			rec.end(id)
		}
	}
	if err != nil {
		return sz, err
	}
	if got := out.String(); via != pathCompile && got != p.Want {
		return sz, fmt.Errorf("%s printed %q, want %q", p.Name, got, p.Want)
	}

	// parser.Parse begins by calling lexer.Tokens, so the lexer has no
	// span of its own to observe. The same call is timed here, after the
	// operation and outside its root, and placed at the start of the
	// parse span as an estimated child; the parser's self time is what
	// is left.
	rec.end(root)
	t0 := time.Now()
	toks, err := lexer.Tokens(file, p.Source)
	rec.estimate("lexer", parse, time.Since(t0), false)
	sz.tokens = len(toks)
	return sz, err
}

// sizes is what the compile path produced for one program or, summed,
// for one pass.
type sizes struct{ tokens, o0, o2, fused int }

func (a *sizes) add(b sizes) {
	a.tokens += b.tokens
	a.o0 += b.o0
	a.o2 += b.o2
	a.fused += b.fused
}

// tracedPasses is the most passes one path records: enough for a steady
// mean, few enough that the span file stays small.
const tracedPasses = 20

// pipeline is the workload-specific part for the compile path and the
// engines: the workload's own programs through every layer. On run_* and
// compile_cold this is the workload itself; on serve_* it is what a
// tetrad worker does for the sources inside the requests, replayed
// in-process because spans are only recorded from the benchmark's files.
func (t *tracer) pipeline() error {
	b, err := setupBatch(t.w, t.seed, t.nproc)
	if err != nil {
		return err
	}
	ps := b.programs
	t.r.attempted += 2 * len(ps) // set-up ran each on both engines

	// Tracing off: the operation the untraced run times.
	var base []float64
	for start := time.Now(); len(base) < 3 || time.Since(start) < t.unit; {
		var d time.Duration
		var failed int
		if t.w.kind == kindCompile {
			d, failed = b.compilePass()
		} else {
			d, failed = b.pass(true)
		}
		t.r.attempted += len(ps)
		t.r.failed += failed
		base = append(base, ms(d))
	}

	// Tracing on, one path at a time in the same tight loop the untraced
	// passes ran in, the workload's own operation first.
	paths := []path{pathVM, pathInterp}
	if t.w.kind == kindCompile {
		paths = []path{pathCompile, pathVM, pathInterp}
	}
	passes := make(map[path]int)
	var total sizes
	op := 0
	for i, via := range paths {
		budget, atLeast := t.unit, 1
		if i == 0 {
			budget, atLeast = 2*t.unit, 2
		}
		for start := time.Now(); passes[via] < atLeast || (time.Since(start) < budget && passes[via] < tracedPasses); passes[via]++ {
			var pass sizes
			for _, p := range ps {
				sz, err := layerRun(t.rec, op, p, via)
				if err != nil {
					return err
				}
				pass.add(sz)
				op++
			}
			if i == 0 {
				total = pass // the same every pass: the compiler is deterministic
			}
			t.r.attempted += len(ps)
		}
	}

	// The compile path's rows come from the workload's own operation;
	// each engine's busy time from its own path.
	spans := t.rec.snapshot()
	opSelf, opTotal := underRoot(spans, string(paths[0]))
	vmSelf, _ := underRoot(spans, string(pathVM))
	interpSelf, _ := underRoot(spans, string(pathInterp))
	perPass := func(d time.Duration, via path) sample { return single(ms(d)/float64(passes[via]), passes[via]) }
	lex := perPass(opSelf["lexer"], paths[0])
	t.r.set("lexer.busy_ms", lex)
	t.r.set("lexer.tokens", single(float64(total.tokens), 1))
	t.r.set("lexer.mtokens_per_s", single(float64(total.tokens)/1e6/(lex.value/1000), lex.n))
	t.r.set("parser.busy_ms", perPass(opSelf["parser"], paths[0]))
	t.r.set("check.busy_ms", perPass(opSelf["check"], paths[0]))
	t.r.set("bytecode.compile_busy_ms", perPass(opSelf["bytecode.compile"], paths[0]))
	t.r.set("bytecode.optimize_busy_ms", perPass(opSelf["bytecode.optimize"], paths[0]))
	t.r.set("bytecode.instrs_o0", single(float64(total.o0), 1))
	t.r.set("bytecode.instrs_o2", single(float64(total.o2), 1))
	t.r.set("bytecode.fused_instrs", single(float64(total.fused), 1))
	t.r.set("vm.run_busy_ms", perPass(vmSelf["vm.run"], pathVM))
	t.r.set("interp.run_busy_ms", perPass(interpSelf["interp.run"], pathInterp))

	// The layers' self times of the workload's operation should add up to
	// the same operation untraced, and recording should cost little. A
	// serving workload's operation is a request; servingProbes sets these.
	if t.w.kind != kindServe {
		var layers time.Duration
		for _, d := range opSelf {
			layers += d
		}
		n := float64(passes[paths[0]])
		untraced := median(base)
		t.r.set("trace.layer_sum_pct", single(100*ms(layers)/n/untraced, int(n)))
		t.r.set("trace.overhead_pct", single(100*(ms(opTotal)/n-untraced)/untraced, int(n)))
	}
	return t.compileExtras(ps)
}

// underRoot returns the self times, by span name, of every span below
// roots called rootName, and the summed duration of those roots. The
// roots' own self time (the glue between the calls) is left out.
func underRoot(spans []span, rootName string) (self map[string]time.Duration, rootTotal time.Duration) {
	var keep []span
	index := make(map[int]int) // index in spans → index in keep
	for i, s := range spans {
		if s.Parent < 0 {
			if s.Name == rootName {
				rootTotal += time.Duration(s.End - s.Start)
			}
			continue
		}
		parent, ok := index[s.Parent]
		if !ok {
			if spans[s.Parent].Name != rootName || spans[s.Parent].Parent >= 0 {
				continue
			}
			parent = -1
		}
		s.Parent = parent
		index[i] = len(keep)
		keep = append(keep, s)
	}
	return selfTimes(keep), rootTotal
}

// compileExtras times the two compile-path layers that are not on the
// batch operation's path: the compile cache, cold and repeated, and the
// Go generator the native tier runs at promotion.
func (t *tracer) compileExtras(ps []Program) error {
	var miss, hit []float64
	_, err := t.probe("core.cache_pass", t.unit/2, 2, func() error {
		cache := core.NewCompileCache(len(ps) + 1)
		for _, p := range ps {
			for _, into := range []*[]float64{&miss, &hit} {
				t0 := time.Now()
				if _, err := cache.CompileBytecode(p.Name+".ttr", p.Source, bytecode.DefaultLevel); err != nil {
					return err
				}
				*into = append(*into, us(time.Since(t0)))
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	t.r.set("core.cache_miss_us", meanSample(miss, "mean per program"))
	t.r.set("core.cache_hit_us", meanSample(hit, "mean per program"))

	asts := make([]*ast.Program, len(ps))
	for i, p := range ps {
		if asts[i], err = core.Compile(p.Name+".ttr", p.Source); err != nil {
			return err
		}
	}
	gen, err := t.probe("gogen.generate_pass", t.unit/2, 2, func() error {
		for _, a := range asts {
			if _, err := gogen.Generate(a); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	t.r.set("gogen.generate_busy_ms", durations(gen, ms))
	return nil
}
