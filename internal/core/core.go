// Package core wires Tetra's pipeline together: source text → lexer →
// parser → checker → a runnable program, executed on either the
// tree-walking interpreter or the bytecode VM. It is the paper's
// "interpreter is written as a library" layer (§IV): the public tetra
// facade, the CLI tools and the debugger all build on it.
package core

import (
	"fmt"
	"os"

	"repro/internal/ast"
	"repro/internal/bytecode"
	"repro/internal/check"
	"repro/internal/interp"
	"repro/internal/parser"
	"repro/internal/rt"
	"repro/internal/value"
	"repro/internal/vm"
)

// Compile parses and checks Tetra source, returning the checked AST.
func Compile(file, src string) (*ast.Program, error) {
	prog, err := parser.Parse(file, src)
	if err != nil {
		return nil, err
	}
	if err := check.Check(prog); err != nil {
		return nil, err
	}
	return prog, nil
}

// CompileFile reads and compiles a .ttr source file.
func CompileFile(path string) (*ast.Program, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return Compile(path, string(src))
}

// Config describes one execution; it is the run configuration itself.
type Config = rt.Config

// NewInterp builds a configured interpreter for the program.
func NewInterp(prog *ast.Program, cfg Config) *interp.Interp {
	return interp.New(prog, cfg)
}

// Run executes the program's main function under the configuration.
func Run(prog *ast.Program, cfg Config) error {
	return NewInterp(prog, cfg).Run()
}

// Call invokes one function of the program with Tetra values, for
// library-style embedding.
func Call(prog *ast.Program, cfg Config, name string, args ...value.Value) (value.Value, error) {
	return NewInterp(prog, cfg).Call(name, args...)
}

// RunProfiled executes the program on the interpreter with work counting
// enabled and returns the per-thread work profile alongside any run error.
func RunProfiled(prog *ast.Program, cfg Config) ([]interp.ThreadWork, error) {
	cfg.CountWork = true
	in := interp.New(prog, cfg)
	err := in.Run()
	return in.WorkProfile(), err
}

// CompileBytecode lowers a checked program to bytecode for the VM backend,
// without optimization (bytecode exactly as the compiler emitted it).
func CompileBytecode(prog *ast.Program) (*bytecode.Program, error) {
	return bytecode.Compile(prog)
}

// CompileBytecodeOpt lowers a checked program to bytecode and runs the
// optimizer at the given level (bytecode.O0 or O2; 1 runs as O0).
func CompileBytecodeOpt(prog *ast.Program, level int) (*bytecode.Program, error) {
	bc, err := bytecode.Compile(prog)
	if err != nil {
		return nil, err
	}
	return bytecode.Optimize(bc, level), nil
}

// NewVM builds a configured VM for the compiled program. The VM backend
// ignores tracing and stepping configuration (it is the fast path; the
// interpreter is the debuggable path).
func NewVM(bc *bytecode.Program, cfg Config) *vm.VM {
	return vm.New(bc, cfg)
}

// RunVM compiles the checked program to bytecode and executes it on the VM
// at the default optimization level. Use RunVMOpt to choose a level.
func RunVM(prog *ast.Program, cfg Config) error {
	return RunVMOpt(prog, cfg, bytecode.DefaultLevel)
}

// RunVMOpt is RunVM with an explicit optimization level.
func RunVMOpt(prog *ast.Program, cfg Config, level int) error {
	bc, err := CompileBytecodeOpt(prog, level)
	if err != nil {
		return err
	}
	return NewVM(bc, cfg).Run()
}
