// Package tetra is the public API of the Tetra educational parallel
// programming system — a Go reproduction of "Introducing Tetra: An
// Educational Parallel Programming System" (IPPS 2015).
//
// Tetra is a small, statically-typed language with Python-like syntax whose
// parallel constructs are first-class language features:
//
//	parallel:            # run each child statement in its own thread, join all
//	background:          # run each child statement in its own thread, don't join
//	parallel for x in a: # one thread per iteration
//	lock name:           # named critical section
//
// # Quick start
//
//	prog, err := tetra.Compile("sum.ttr", src)
//	if err != nil { ... }
//	var out bytes.Buffer
//	err = prog.Run(tetra.Config{Stdout: &out})
//
// Programs can also be embedded function-by-function:
//
//	v, err := prog.Call("sum", tetra.IntArray(1, 2, 3))
//	fmt.Println(v.Int()) // 6
//
// The deeper tooling — execution tracing, the per-thread stepping debugger,
// the lockset race detector and the wait-for-graph deadlock analysis — is
// exposed via Config.Tracer and the cmd/tetradbg tool.
package tetra

import (
	"repro/internal/ast"
	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/guard"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/types"
	"repro/internal/value"
)

// Value is a Tetra runtime value (int, real, string, bool or array). Build
// one with Int, Real, String, Bool or the …Array constructors below and read
// it with its Int, Real, Str, Bool and Array methods; K is its kind.
type Value = value.Value

// Event is one recorded execution event (thread start/end, statement step,
// lock operation, shared-variable access, output).
type Event = trace.Event

// Collector buffers execution events in memory; pass one as Config.Tracer
// and read Events() afterwards.
type Collector = trace.Collector

// NewCollector returns an empty event collector. Retention is bounded:
// the collector is a ring keeping the most recent trace.DefaultCap
// events (Dropped/Truncated report overflow), so tracing a long run
// cannot exhaust the embedding process's memory.
func NewCollector() *Collector { return trace.NewCollector() }

// NewCollectorCap returns an event collector retaining at most capacity
// events (0 = the default bound, negative = unbounded — only for short
// trusted runs).
func NewCollectorCap(capacity int) *Collector { return trace.NewCollectorCap(capacity) }

// Config is the run configuration: the one description of a run that
// reaches the engine unchanged, whichever of Run, RunVM and CallWith
// carries it. Its fields are documented on the struct itself; the ones an
// embedder usually sets are Stdin, Stdout, Tracer (see NewCollector),
// Limits (see SandboxLimits) and Sched.
type Config = core.Config

// Sched is the parallel-loop scheduling configuration; the zero value
// selects the defaults.
type Sched = sched.Config

// Limits is the resource budget for one execution; the zero value of any
// field means "unlimited".
type Limits = guard.Limits

// SandboxLimits returns the sandbox default budgets — what `tetra
// -sandbox` applies — sized so legitimate teaching workloads finish while
// runaway programs die promptly.
func SandboxLimits() Limits { return Limits{}.WithSandboxDefaults() }

// Program is a compiled (parsed and type-checked) Tetra program.
type Program struct {
	prog *ast.Program

	// Set by CompileWithOptions; zero values select the defaults.
	optLevel int
	cache    *CompileCache
	file     string
	src      string
}

// Optimization levels for CompileOptions.OptLevel. The zero value is full
// optimization, so a zero CompileOptions does the right thing; pass
// OptNone to execute exactly the bytecode the compiler emitted (useful for
// differential testing and for debugging the optimizer itself).
const (
	OptFull = 0  // full optimization (-O2: jump threading, DCE, leaf inlining, step fusion, tail calls)
	OptNone = -1 // optimizer disabled
)

// CompileCache memoizes parse, check and bytecode compilation across
// Compile calls, keyed by a content hash of the file name and source.
// Safe for concurrent use; see NewCompileCache.
type CompileCache = core.CompileCache

// CacheStats is the hit/miss report from CompileCache.Stats.
type CacheStats = core.CacheStats

// NewCompileCache returns a compile cache holding at most maxEntries
// programs (<= 0 selects a default bound). Share one cache across
// CompileWithOptions calls to skip recompiling sources already seen.
func NewCompileCache(maxEntries int) *CompileCache {
	return core.NewCompileCache(maxEntries)
}

// CompileOptions configures CompileWithOptions. The zero value matches
// plain Compile: full optimization, no cache.
type CompileOptions struct {
	// OptLevel selects how hard RunVM optimizes the bytecode: OptFull (the
	// zero value), OptNone, or an explicit level 1 or 2.
	OptLevel int
	// Cache, when non-nil, memoizes compilation by source content hash;
	// recompiling an already-seen source becomes a map lookup.
	Cache *CompileCache
}

// bytecodeLevel maps the public OptLevel convention onto the internal
// optimizer levels.
func bytecodeLevel(opt int) int {
	switch {
	case opt == OptFull:
		return bytecode.DefaultLevel
	case opt < 0:
		return bytecode.O0
	case opt > bytecode.O2:
		return bytecode.O2
	default:
		return opt
	}
}

// Compile parses and type-checks Tetra source code. The file name is used
// in error messages and positions only.
func Compile(file, src string) (*Program, error) {
	return CompileWithOptions(file, src, CompileOptions{})
}

// CompileWithOptions is Compile with an optimization level and an optional
// compile cache.
func CompileWithOptions(file, src string, opts CompileOptions) (*Program, error) {
	var p *ast.Program
	var err error
	if opts.Cache != nil {
		p, err = opts.Cache.Compile(file, src)
	} else {
		p, err = core.Compile(file, src)
	}
	if err != nil {
		return nil, err
	}
	return &Program{prog: p, optLevel: opts.OptLevel, cache: opts.Cache, file: file, src: src}, nil
}

// CompileFile reads and compiles a Tetra source file.
func CompileFile(path string) (*Program, error) {
	p, err := core.CompileFile(path)
	if err != nil {
		return nil, err
	}
	return &Program{prog: p}, nil
}

// AST exposes the checked syntax tree for tooling built on the library
// (the debugger and bytecode compiler use it).
func (p *Program) AST() *ast.Program { return p.prog }

// Run executes the program's main function on the tree-walking
// interpreter — the debuggable path, honouring Tracer and Step.
func (p *Program) Run(cfg Config) error {
	return core.Run(p.prog, cfg)
}

// RunVM executes the program's main function on the bytecode VM — the
// fast path — at the optimization level the program was compiled with.
// Tracer and Step are ignored on this backend. When the program was
// compiled through a cache, the compiled bytecode is reused across calls.
func (p *Program) RunVM(cfg Config) error {
	level := bytecodeLevel(p.optLevel)
	if p.cache != nil && p.file != "" {
		bc, err := p.cache.CompileBytecode(p.file, p.src, level)
		if err != nil {
			return err
		}
		return core.NewVM(bc, cfg).Run()
	}
	return core.RunVMOpt(p.prog, cfg, level)
}

// Call invokes a named function with the given argument values and returns
// its result (the zero Value for void functions). An int argument widens to
// a real parameter; any other argument that is not of its parameter's type
// is an error.
func (p *Program) Call(name string, args ...Value) (Value, error) {
	return p.CallWith(Config{}, name, args...)
}

// CallWith is Call with explicit I/O and tracing configuration.
func (p *Program) CallWith(cfg Config, name string, args ...Value) (Value, error) {
	return core.Call(p.prog, cfg, name, args...)
}

// Value constructors for embedding.

// Int returns a Tetra int value.
func Int(v int64) Value { return value.NewInt(v) }

// Real returns a Tetra real value.
func Real(v float64) Value { return value.NewReal(v) }

// String returns a Tetra string value.
func String(s string) Value { return value.NewString(s) }

// Bool returns a Tetra bool value.
func Bool(b bool) Value { return value.NewBool(b) }

// IntArray returns a Tetra [int] value.
func IntArray(vs ...int64) Value {
	elems := make([]value.Value, len(vs))
	for i, v := range vs {
		elems[i] = value.NewInt(v)
	}
	return value.NewArray(value.FromSlice(types.IntType, elems))
}

// RealArray returns a Tetra [real] value.
func RealArray(vs ...float64) Value {
	elems := make([]value.Value, len(vs))
	for i, v := range vs {
		elems[i] = value.NewReal(v)
	}
	return value.NewArray(value.FromSlice(types.RealType, elems))
}

// StringArray returns a Tetra [string] value.
func StringArray(vs ...string) Value {
	elems := make([]value.Value, len(vs))
	for i, v := range vs {
		elems[i] = value.NewString(v)
	}
	return value.NewArray(value.FromSlice(types.StringType, elems))
}
