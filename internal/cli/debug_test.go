package cli

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// writeScript puts a command script in a temp file.
func writeScript(t *testing.T, commands string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "script")
	if err := os.WriteFile(path, []byte(commands), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// debugRun runs a scripted tetradbg session.
func debugRun(t *testing.T, programSrc, commands string) (int, string, string) {
	t.Helper()
	prog := write(t, programSrc)
	script := writeScript(t, commands)
	var out, errOut bytes.Buffer
	code := DebugMain([]string{"-script", script, prog}, strings.NewReader(""), &out, &errOut)
	return code, out.String(), errOut.String()
}

const dbgProgram = `def double(x int) int:
    return x * 2

def main():
    a = double(3)
    b = a + 1
    print(b)
`

func TestScriptedSessionStepsAndFinishes(t *testing.T) {
	code, out, errOut := debugRun(t, dbgProgram, `
threads
next 0
vars 0
next 0
run
`)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	for _, want := range []string{
		"stopped on entry",
		"t0   paused    main",
		"a = 6", // vars after stepping over double(3)
		"7\n",   // program output
	} {
		if !strings.Contains(out, want) {
			t.Errorf("session output missing %q:\n%s", want, out)
		}
	}
}

func TestScriptedSessionStepInto(t *testing.T) {
	code, out, _ := debugRun(t, dbgProgram, `
step 0
threads
run
`)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	// Stepping into double lands at its return statement.
	if !strings.Contains(out, "double") || !strings.Contains(out, "return x * 2") {
		t.Errorf("step did not enter the call:\n%s", out)
	}
}

func TestScriptedBreakpointAndList(t *testing.T) {
	code, out, _ := debugRun(t, dbgProgram, `
break 6
breaks
list
continue 0
wait 0
threads
run
`)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{
		"breakpoint at line 6",
		"breakpoints: [6]",
		" ● ", // the list marker
		"6:5", // paused at line 6
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestScriptedParallelSession(t *testing.T) {
	src := `def work(k int) int:
    v = k * 10
    return v

def main():
    parallel:
        a = work(1)
        b = work(2)
    print(a + b)
`
	code, out, _ := debugRun(t, src, `
step 0
wait
threads
step 1
step 2
run
`)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "t1") || !strings.Contains(out, "t2") {
		t.Errorf("worker threads not shown:\n%s", out)
	}
	if !strings.Contains(out, "30\n") {
		t.Errorf("program result missing:\n%s", out)
	}
}

func TestScriptedUnknownAndUsageCommands(t *testing.T) {
	code, out, _ := debugRun(t, dbgProgram, `
frobnicate
step
vars
run
`)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "unknown command") || !strings.Contains(out, "usage: step <thread>") {
		t.Errorf("help text missing:\n%s", out)
	}
}

func TestScriptedQuitRunsToCompletion(t *testing.T) {
	code, out, _ := debugRun(t, dbgProgram, "quit\n")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	// Quit releases all threads; the program still finishes and prints.
	if !strings.Contains(out, "7\n") {
		t.Errorf("program did not run to completion:\n%s", out)
	}
}

func TestDebugRuntimeErrorExitCode(t *testing.T) {
	code, _, errOut := debugRun(t, "def main():\n    a = [1]\n    print(a[5])\n", "run\n")
	if code != 1 || !strings.Contains(errOut, "out of range") {
		t.Errorf("code=%d err=%q", code, errOut)
	}
}

func TestDebugUsage(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := DebugMain(nil, strings.NewReader(""), &out, &errOut); code != 2 {
		t.Error("no args should exit 2")
	}
	if code := DebugMain([]string{"/nonexistent.ttr"}, strings.NewReader("quit\n"), &out, &errOut); code != 1 {
		t.Error("missing file should exit 1")
	}
}

func TestCompileMainStdout(t *testing.T) {
	prog := write(t, "def main():\n    print(1)\n")
	var out, errOut bytes.Buffer
	code := CompileMain([]string{"-stdout", prog}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	for _, want := range []string{"package main", "gort.Main(" + strconv.Quote(prog) + ", []string(nil), func(t *gort.Thread) { t_main(t, 1) })", "gort.Print("} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("generated source missing %q", want)
		}
	}
}

func TestCompileMainWritesFile(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "p.ttr")
	if err := os.WriteFile(src, []byte("def main():\n    print(1)\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	code := CompileMain([]string{src}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	data, err := os.ReadFile(filepath.Join(dir, "p.go"))
	if err != nil {
		t.Fatalf("output file not written: %v", err)
	}
	if !strings.Contains(string(data), "package main") {
		t.Error("output file content wrong")
	}
}

func TestCompileMainErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := CompileMain(nil, &out, &errOut); code != 2 {
		t.Error("no args should exit 2")
	}
	bad := write(t, "def f():\n    pass\n") // no main
	if code := CompileMain([]string{"-stdout", bad}, &out, &errOut); code != 1 {
		t.Error("program without main should exit 1")
	}
}
