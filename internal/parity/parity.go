// Package parity is the one harness that holds every front door of Tetra
// to the same meaning: a program prints the same bytes and fails with the
// same positioned error on the interpreter and on the VM at each
// optimization level, whether it is run as a library, by the tetra CLI,
// by tetrad in-process, in a pooled worker, as a promoted native artifact,
// in a debug session or through tetrarouter.
//
// It holds what every suite would otherwise re-derive: the golden corpus
// (Corpus), the engine table (Variants), the comparison rule (Diff), the
// matrix runner (Matrix) and the serving invariants (serve.go). Only
// _test.go files import it; each front door keeps its own set-up in the
// package that owns it and hands Matrix a Door.
package parity

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/bytecode"
	"repro/internal/core"
)

// Case is one program with its input and, when known, what it must do.
type Case struct {
	Name  string
	File  string // the name positions use; Name + ".ttr" when empty
	Src   string
	Stdin string
	// Want is the expected result. When nil, the result of the first
	// variant a matrix runs (the interpreter) is the reference.
	Want *Result
	// Config is the run configuration of the in-process engines (limits,
	// scheduler) apart from Stdin and Stdout, which the case sets. The
	// serving doors run under their own configuration.
	Config core.Config
}

// FileName is the name the program's positions use.
func (c Case) FileName() string {
	if c.File != "" {
		return c.File
	}
	return c.Name + ".ttr"
}

// Result is what a run means: its output and its error.
type Result struct {
	Stdout string
	Err    string // the full error text, position included; "" on success
}

// Diff is the comparison rule: stdout byte for byte and the full error
// text with its position. It returns "" when got means what want does.
func Diff(want, got Result) string {
	var d []string
	if got.Stdout != want.Stdout {
		d = append(d, fmt.Sprintf("stdout %q, want %q", got.Stdout, want.Stdout))
	}
	if got.Err != want.Err {
		d = append(d, fmt.Sprintf("error %q, want %q", got.Err, want.Err))
	}
	return strings.Join(d, "; ")
}

// Corpus reads testdata/programs: every .ttr with its recorded .out and
// optional .in. It is the one reader of the golden corpus.
func Corpus(t testing.TB) []Case {
	t.Helper()
	_, self, _, _ := runtime.Caller(0)
	dir := filepath.Join(filepath.Dir(self), "..", "..", "testdata", "programs")
	paths, err := filepath.Glob(filepath.Join(dir, "*.ttr"))
	if err != nil {
		t.Fatal(err)
	}
	var cases []Case
	for _, p := range paths {
		base := strings.TrimSuffix(p, ".ttr")
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out, err := os.ReadFile(base + ".out")
		if err != nil {
			t.Fatalf("missing golden output: %v", err)
		}
		in, err := os.ReadFile(base + ".in")
		if err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		name := filepath.Base(base)
		cases = append(cases, Case{Name: name, File: name + ".ttr", Src: string(src),
			Stdin: string(in), Want: &Result{Stdout: string(out)}})
	}
	if len(cases) < 20 {
		t.Fatalf("corpus unexpectedly small: %d programs in %s", len(cases), dir)
	}
	return cases
}

// Variant is one row of the engine table.
type Variant struct {
	Name    string // "interp", "vm-O0", "vm-O1", "vm-O2"
	Backend string // the engine as the CLI and tetrad name it: "interp" or "vm"
	Opt     int    // the VM's optimization level
}

// Variants is the engine table every front door runs: the interpreter
// and the VM at each optimization level.
var Variants = []Variant{
	{"interp", "interp", 0},
	{"vm-O0", "vm", bytecode.O0},
	{"vm-O1", "vm", bytecode.O1},
	{"vm-O2", "vm", bytecode.O2},
}

// Machine is a built engine.
type Machine interface {
	Run() error
	Cancel()
}

// Build builds the variant's engine for prog through core, as the product
// does, with the IR verifier run after compiling and after every
// optimizer phase.
func (v Variant) Build(prog *ast.Program, cfg core.Config) (Machine, error) {
	if v.Backend == "interp" {
		return core.NewInterp(prog, cfg), nil
	}
	bc, err := core.CompileBytecode(prog)
	if err != nil {
		return nil, err
	}
	if err := bytecode.VerifyOptimize(bc, v.Opt); err != nil {
		return nil, fmt.Errorf("-O%d: %w", v.Opt, err)
	}
	return core.NewVM(bc, cfg), nil
}

// Run compiles c and runs it on the variant's engine in this process: the
// library door. A program that does not compile fails t.
func (v Variant) Run(t testing.TB, c Case) Result {
	t.Helper()
	prog, err := core.Compile(c.FileName(), c.Src)
	if err != nil {
		t.Fatalf("%s: %v\n%s", c.Name, err, c.Src)
	}
	var out bytes.Buffer
	cfg := c.Config
	cfg.Stdin = strings.NewReader(c.Stdin)
	cfg.Stdout = &out
	m, err := v.Build(prog, cfg)
	if err != nil {
		t.Fatalf("%s at %s: %v\n%s", c.Name, v.Name, err, c.Src)
	}
	err = m.Run()
	r := Result{Stdout: out.String()}
	if err != nil {
		r.Err = err.Error()
	}
	return r
}

// Library is the door of the engine table itself.
func Library(t *testing.T, c Case, v Variant) Result { return v.Run(t, c) }

// Agree runs c on every variant in this process and fails t unless each
// means what the interpreter does (and what c.Want says, when set). It
// returns the agreed result. It is the matrix without subtests, for
// tables of generated programs.
func Agree(t testing.TB, c Case) Result {
	t.Helper()
	ref := Variants[0].Run(t, c)
	if c.Want != nil {
		if d := Diff(*c.Want, ref); d != "" {
			t.Fatalf("%s at %s: %s\nsource:\n%s", c.Name, Variants[0].Name, d, c.Src)
		}
	}
	for _, v := range Variants[1:] {
		if d := Diff(ref, v.Run(t, c)); d != "" {
			t.Fatalf("%s at %s diverges from %s: %s\nsource:\n%s", c.Name, v.Name, Variants[0].Name, d, c.Src)
		}
	}
	return ref
}

// A Door runs one case at one variant through one front door.
type Door func(t *testing.T, c Case, v Variant) Result

// Matrix runs every case at every variant through door as subtests of t
// named case/variant; a failure names the program, the variant and the
// front door. Each result must mean what the case wants or, when it wants
// nothing, what the first variant gave. cases may come from any source.
func Matrix(t *testing.T, door string, cases []Case, run Door) {
	t.Helper()
	for _, c := range cases {
		t.Run(c.Name, func(t *testing.T) {
			want := c.Want
			for _, v := range Variants {
				t.Run(v.Name, func(t *testing.T) {
					got := run(t, c, v)
					if want == nil {
						want = &got
						return
					}
					if d := Diff(*want, got); d != "" {
						t.Errorf("%s door, %s at %s: %s", door, c.Name, v.Name, d)
					}
				})
			}
		})
	}
}
