package main

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/tetra"
)

// runFacade takes one program from source to output the way a user of
// the library does: tetra.Compile, then RunVM or Run into a buffer.
func runFacade(p Program, vm bool) (string, error) {
	prog, err := tetra.Compile(p.Name+".ttr", p.Source)
	if err != nil {
		return "", err
	}
	var out bytes.Buffer
	cfg := tetra.Config{Stdin: strings.NewReader(p.Stdin), Stdout: &out}
	if vm {
		err = prog.RunVM(cfg)
	} else {
		err = prog.Run(cfg)
	}
	return out.String(), err
}

// compileCold takes one program from source to optimised bytecode with
// no cache, the way tetrad's workers do on a miss.
func compileCold(p Program) (*bytecode.Program, error) {
	ast, err := core.Compile(p.Name+".ttr", p.Source)
	if err != nil {
		return nil, err
	}
	return core.CompileBytecodeOpt(ast, bytecode.DefaultLevel)
}

// instrCount is the size of the IR: instructions over every chunk of
// every function.
func instrCount(bc *bytecode.Program) int {
	n := 0
	for _, f := range bc.Funcs {
		for _, ch := range f.Chunks {
			n += len(ch.Code)
		}
	}
	return n
}

// fusedCount counts the superinstructions the optimiser emitted.
func fusedCount(bc *bytecode.Program) int {
	n := 0
	for _, f := range bc.Funcs {
		for _, ch := range f.Chunks {
			for _, in := range ch.Code {
				switch in.Op {
				case bytecode.OpCmpJump, bytecode.OpCmpConstJump, bytecode.OpArithConst, bytecode.OpArithConstL:
					n++
				}
			}
		}
	}
	return n
}

// batch is a set-up in-process workload: generated programs, each
// verified on both engines, and for compile_cold the instruction count
// every later compile of the same source must reproduce.
type batch struct {
	w        workload
	programs []Program
	instrs   []int
}

// setupBatch generates the inputs and runs every program once on the
// interpreter and once on the VM, comparing both with the expected
// output. That pass is also the warm-up. For the synthesised compile
// corpus, which has no independent reference, the interpreter's output
// becomes the expectation the VM must match. compile_cold only compiles
// the golden that sleeps: the test runs it, and a set-up that is mostly a
// timer would not scale with the host.
func setupBatch(w workload, seed int64, nproc int) (*batch, error) {
	ps, err := w.programs(seed, nproc)
	if err != nil {
		return nil, err
	}
	b := &batch{w: w, programs: ps}
	for i := range ps {
		p := &ps[i]
		if w.kind == kindCompile {
			bc, err := compileCold(*p)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", w.name, p.Name, err)
			}
			b.instrs = append(b.instrs, instrCount(bc))
			if p.sleeps() {
				continue
			}
		}
		got, err := runFacade(*p, false)
		if err != nil {
			return nil, fmt.Errorf("%s/%s on the interpreter: %w", w.name, p.Name, err)
		}
		if p.Want == "" {
			p.Want = got
		} else if got != p.Want {
			return nil, fmt.Errorf("%s/%s on the interpreter printed %q, want %q", w.name, p.Name, got, p.Want)
		}
		got, err = runFacade(*p, true)
		if err != nil {
			return nil, fmt.Errorf("%s/%s on the VM: %w", w.name, p.Name, err)
		}
		if got != p.Want {
			return nil, fmt.Errorf("%s/%s on the VM printed %q, want %q", w.name, p.Name, got, p.Want)
		}
	}
	return b, nil
}

// pass runs every program once and returns the wall time and how many
// programs failed (errored or printed something else than expected).
func (b *batch) pass(vm bool) (time.Duration, int) {
	failed := 0
	start := time.Now()
	for _, p := range b.programs {
		if got, err := runFacade(p, vm); err != nil || got != p.Want {
			failed++
		}
	}
	return time.Since(start), failed
}

// compilePass compiles the whole corpus once, uncached.
func (b *batch) compilePass() (time.Duration, int) {
	failed := 0
	start := time.Now()
	for i, p := range b.programs {
		if bc, err := compileCold(p); err != nil || instrCount(bc) != b.instrs[i] {
			failed++
		}
	}
	return time.Since(start), failed
}

// vmPassesPerCycle fixes the mix of the closed loop on run_* workloads:
// two VM passes, then one interpreter pass. The ratio is fixed so that
// throughput_ops compares like with like whatever the engines' speeds.
const vmPassesPerCycle = 2

// measure is the untraced measured part: a closed loop of one caller for
// about d, with a slice of the host reference kernel before every pass
// (every eighth on compile_cold, whose passes are short). On run_*
// op_p50_ms is the VM pass time and throughput_ops counts program runs
// on both engines, so the interpreter carries most of its weight; on
// compile_cold everything is the compile pass. The reference kernel's
// own time is taken out of the elapsed and the CPU time.
func (b *batch) measure(d time.Duration, r *result, ref *hostRef) {
	var primary, interp []float64
	cpu0, _ := selfUsage()
	spent0 := ref.spent
	start := time.Now()
	for n := 0; time.Since(start) < d; n++ {
		if b.w.kind == kindCompile {
			if n%8 == 0 {
				ref.sample(1)
			}
			t, f := b.compilePass()
			primary = append(primary, ms(t))
			r.failed += f
			r.attempted += len(b.programs)
			continue
		}
		for i := 0; i < vmPassesPerCycle; i++ {
			ref.sample(1)
			t, f := b.pass(true)
			primary = append(primary, ms(t))
			r.failed += f
		}
		ref.sample(1)
		t, f := b.pass(false)
		interp = append(interp, ms(t))
		r.failed += f
		r.attempted += (vmPassesPerCycle + 1) * len(b.programs)
	}
	refTime := ref.spent - spent0
	elapsed := time.Since(start) - refTime
	cpu1, rss := selfUsage()

	r.set("op_p50_ms", timing(primary))
	r.set("throughput_ops", single(float64(r.attempted)/elapsed.Seconds(), r.attempted))
	r.set("cpu_ms_per_op", single((cpu1-cpu0-refTime.Seconds())*1000/float64(r.attempted), r.attempted))
	r.set("rss_mb", single(rss, 1))
	r.notes = append(r.notes, "tail, as measured: "+tailOf(primary))
	if len(interp) > 0 {
		q1, q3 := quartiles(interp)
		r.notes = append(r.notes, fmt.Sprintf("interpreter pass, as measured: median %.3f ms, q1 %.3f, q3 %.3f, n=%d (op_p50_ms is the VM pass)",
			median(interp), q1, q3, len(interp)))
	}
}

// tailOf names the highest percentile the sample supports with about ten
// observations beyond it: p95 from 200 samples on, else the third
// quartile. It is printed, not judged: see endToEnd.
func tailOf(vs []float64) string {
	if len(vs) >= 200 {
		return fmt.Sprintf("p95 %.3f ms of %d", percentile(vs, 95), len(vs))
	}
	return fmt.Sprintf("p75 %.3f ms of %d", percentile(vs, 75), len(vs))
}
