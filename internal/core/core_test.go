package core

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/guard"
	"repro/internal/value"
)

const sumSrc = `def add(a int, b int) int:
    return a + b

def main():
    print(add(40, 2))
`

func TestCompileAndRun(t *testing.T) {
	prog, err := Compile("t.ttr", sumSrc)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := Run(prog, Config{Stdout: &out}); err != nil {
		t.Fatal(err)
	}
	if out.String() != "42\n" {
		t.Errorf("output = %q", out.String())
	}
}

func TestCompileErrorsPropagate(t *testing.T) {
	if _, err := Compile("t.ttr", "def main(:\n"); err == nil {
		t.Error("syntax error not propagated")
	}
	if _, err := Compile("t.ttr", "def main():\n    print(zzz)\n"); err == nil {
		t.Error("type error not propagated")
	}
}

func TestCompileFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.ttr")
	if err := os.WriteFile(path, []byte(sumSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	prog, err := CompileFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Lookup("add") == nil {
		t.Error("compiled file lost its functions")
	}
	if _, err := CompileFile(filepath.Join(dir, "missing.ttr")); err == nil {
		t.Error("missing file should error")
	}
}

func TestCall(t *testing.T) {
	prog, err := Compile("t.ttr", sumSrc)
	if err != nil {
		t.Fatal(err)
	}
	v, err := Call(prog, Config{}, "add", value.NewInt(1), value.NewInt(2))
	if err != nil || v.Int() != 3 {
		t.Errorf("Call = %v, %v", v, err)
	}
}

func TestRunVMAndCallVM(t *testing.T) {
	prog, err := Compile("t.ttr", sumSrc)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := RunVM(prog, Config{Stdout: &out}); err != nil {
		t.Fatal(err)
	}
	if out.String() != "42\n" {
		t.Errorf("vm output = %q", out.String())
	}
	bc, err := CompileBytecodeOpt(prog, bytecode.DefaultLevel)
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewVM(bc, Config{}).Call("add", value.NewInt(20), value.NewInt(22))
	if err != nil || v.Int() != 42 {
		t.Errorf("NewVM(...).Call = %v, %v", v, err)
	}
}

func TestDefaultStdinIsEmpty(t *testing.T) {
	prog, err := Compile("t.ttr", "def main():\n    n = read_int()\n")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := Run(prog, Config{Stdout: &out}); err == nil || !strings.Contains(err.Error(), "read_int") {
		t.Errorf("default stdin should be empty, err = %v", err)
	}
}

func TestRunProfiled(t *testing.T) {
	prog, err := Compile("t.ttr", `def spin(n int) int:
    t = 0
    i = 0
    while i < n:
        t += i
        i += 1
    return t

def main():
    out = [0, 0, 0, 0]
    parallel for w in [0 .. 3]:
        out[w] = spin(500)
    print(out[0])
`)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	tw, err := RunProfiled(prog, Config{Stdout: &out})
	if err != nil {
		t.Fatal(err)
	}
	if len(tw) != 5 { // main + 4 workers
		t.Fatalf("profile threads = %d: %+v", len(tw), tw)
	}
	var workers int
	for _, w := range tw {
		if w.ID != 0 {
			workers++
			if w.Work < 500 {
				t.Errorf("worker %d work = %d, implausibly small", w.ID, w.Work)
			}
		}
	}
	if workers != 4 {
		t.Errorf("workers = %d", workers)
	}
}

// A profiled run is a run: the configuration's limits bound it.
func TestRunProfiledIsBounded(t *testing.T) {
	prog, err := Compile("t.ttr", "def main():\n    while true:\n        pass\n")
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunProfiled(prog, Config{Limits: guard.Limits{MaxSteps: 1000}})
	if err == nil || !strings.Contains(err.Error(), "exceeded step budget (1000)") {
		t.Fatalf("err = %v, want the step-budget error", err)
	}
}
