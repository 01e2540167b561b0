package cli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/gogen"
)

// CompileMain runs the tetracompile command (cmd/tetracompile is a thin
// wrapper): Tetra → Go source, the paper's future-work native compiler.
// With -dis it instead prints the register bytecode the VM would run,
// with slot names and superinstruction annotations.
func CompileMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tetracompile", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("o", "", "output file (default: input with .go extension)")
	toStdout := fs.Bool("stdout", false, "write the generated Go source to stdout")
	dis := fs.Bool("dis", false, "disassemble the register bytecode instead of generating Go")
	optLevel := fs.Int("O", bytecode.DefaultLevel, "bytecode optimization level for -dis: 0 = the compiler's output as it is (1 runs as 0), 2 = leaf inlining and tail calls")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: tetracompile [-o out.go | -stdout | -dis [-O level]] program.ttr")
		return 2
	}
	in := fs.Arg(0)
	prog, err := core.CompileFile(in)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if *dis {
		bc, err := core.CompileBytecodeOpt(prog, *optLevel)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprint(stdout, bytecode.DisassembleProgram(bc))
		return 0
	}
	src, err := gogen.Generate(prog)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if *toStdout {
		fmt.Fprint(stdout, src)
		return 0
	}
	path := *out
	if path == "" {
		path = strings.TrimSuffix(in, ".ttr") + ".go"
	}
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s (build it from within this module: go run %s)\n", path, path)
	return 0
}
