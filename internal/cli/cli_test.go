package cli

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// write puts src in a temp .ttr file and returns its path.
func write(t *testing.T, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prog.ttr")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// run invokes the CLI and returns (exit code, stdout, stderr).
func run(t *testing.T, args []string, input string) (int, string, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := Main(args, strings.NewReader(input), &out, &errOut)
	return code, out.String(), errOut.String()
}

const sumProgram = `def main():
    total = 0
    for i in [1 .. 10]:
        total += i
    print(total)
`

func TestRunProgram(t *testing.T) {
	path := write(t, sumProgram)
	code, out, errOut := run(t, []string{path}, "")
	if code != 0 || out != "55\n" || errOut != "" {
		t.Errorf("code=%d out=%q err=%q", code, out, errOut)
	}
}

func TestRunWithStdin(t *testing.T) {
	path := write(t, "def main():\n    print(read_int() * 2)\n")
	code, out, _ := run(t, []string{path}, "21\n")
	if code != 0 || out != "42\n" {
		t.Errorf("code=%d out=%q", code, out)
	}
}

func TestVMBackend(t *testing.T) {
	path := write(t, sumProgram)
	code, out, _ := run(t, []string{"-vm", path}, "")
	if code != 0 || out != "55\n" {
		t.Errorf("code=%d out=%q", code, out)
	}
}

func TestCheckOnly(t *testing.T) {
	path := write(t, sumProgram)
	code, out, _ := run(t, []string{"-check", path}, "")
	if code != 0 || !strings.Contains(out, "ok (1 function(s), 0 lock name(s))") {
		t.Errorf("code=%d out=%q", code, out)
	}
}

func TestASTDump(t *testing.T) {
	path := write(t, sumProgram)
	code, out, _ := run(t, []string{"-ast", path}, "")
	if code != 0 || !strings.Contains(out, "def main():") || !strings.Contains(out, "total += i") {
		t.Errorf("code=%d out=%q", code, out)
	}
}

func TestDisasm(t *testing.T) {
	path := write(t, sumProgram)
	code, out, _ := run(t, []string{"-disasm", path}, "")
	if code != 0 || !strings.Contains(out, "func main") || !strings.Contains(out, "foriter") {
		t.Errorf("code=%d out=%q", code, out)
	}
}

func TestTraceTimeline(t *testing.T) {
	path := write(t, `def main():
    parallel:
        print(1)
        print(2)
`)
	code, out, _ := run(t, []string{"-trace", path}, "")
	if code != 0 {
		t.Fatalf("code=%d out=%q", code, out)
	}
	for _, want := range []string{"execution timeline", "thread 1", "thread 2", "threads=3"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace output missing %q:\n%s", want, out)
		}
	}
}

func TestRaceReport(t *testing.T) {
	racy := write(t, `def main():
    count = 0
    parallel for i in [1 .. 4]:
        count += 1
    print(count)
`)
	code, out, _ := run(t, []string{"-race", racy}, "")
	if code != 0 || !strings.Contains(out, "RACE on count") {
		t.Errorf("code=%d out=%q", code, out)
	}

	clean := write(t, `def main():
    count = 0
    parallel for i in [1 .. 4]:
        lock c:
            count += 1
    print(count)
`)
	code, out, _ = run(t, []string{"-race", clean}, "")
	if code != 0 || !strings.Contains(out, "no races detected") {
		t.Errorf("clean program: code=%d out=%q", code, out)
	}
}

// TestSchedFlagsDeterministicOutput checks that worker/grain settings and
// the race tracer never change what a slot-disjoint parallel loop prints:
// every variant is byte-for-byte the plain run.
func TestSchedFlagsDeterministicOutput(t *testing.T) {
	path := write(t, `def main():
    out = ["", "", "", "", ""]
    s = "héllo"
    parallel for i in range(5):
        out[i] = s[i]
    print(join(out, ""))
`)
	_, want, _ := run(t, []string{path}, "")
	if want != "héllo\n" {
		t.Fatalf("baseline out = %q", want)
	}
	variants := [][]string{
		{"-workers", "1", path},
		{"-workers", "2", "-grain", "2", path},
		{"-workers", "8", path},
		{"-vm", "-workers", "3", path},
	}
	for _, args := range variants {
		code, out, errOut := run(t, args, "")
		if code != 0 || out != want {
			t.Errorf("%v: code=%d out=%q err=%q", args, code, out, errOut)
		}
	}
	// Under -race the program output precedes the report, unchanged.
	code, out, _ := run(t, []string{"-race", "-workers", "4", path}, "")
	progOut, _, found := strings.Cut(out, "\n--- race report ---")
	if code != 0 || !found || progOut != want {
		t.Errorf("-race: code=%d out=%q", code, out)
	}
	if !strings.Contains(out, "no races detected") {
		t.Errorf("disjoint-slot loop reported a race:\n%s", out)
	}
}

func TestDeadlockReportAndExit(t *testing.T) {
	path := write(t, `def ab():
    lock a:
        sleep(30)
        lock b:
            pass

def ba():
    lock b:
        sleep(30)
        lock a:
            pass

def main():
    parallel:
        ab()
        ba()
`)
	code, out, errOut := run(t, []string{"-deadlock", path}, "")
	if code != 1 {
		t.Errorf("deadlocking program exited %d", code)
	}
	if !strings.Contains(errOut, "deadlock detected") {
		t.Errorf("stderr = %q", errOut)
	}
	if !strings.Contains(out, "lock report") {
		t.Errorf("stdout = %q", out)
	}
}

func TestRuntimeErrorExitCode(t *testing.T) {
	path := write(t, "def main():\n    a = [1]\n    print(a[5])\n")
	code, _, errOut := run(t, []string{path}, "")
	if code != 1 || !strings.Contains(errOut, "out of range") {
		t.Errorf("code=%d err=%q", code, errOut)
	}
}

func TestCompileErrorExitCode(t *testing.T) {
	path := write(t, "def main():\n    print(zzz)\n")
	code, _, errOut := run(t, []string{path}, "")
	if code != 1 || !strings.Contains(errOut, "undefined variable") {
		t.Errorf("code=%d err=%q", code, errOut)
	}
}

func TestUsageErrors(t *testing.T) {
	if code, _, _ := run(t, nil, ""); code != 2 {
		t.Error("no args should exit 2")
	}
	if code, _, _ := run(t, []string{"-bogus-flag", "x.ttr"}, ""); code != 2 {
		t.Error("bad flag should exit 2")
	}
	if code, _, errOut := run(t, []string{"/nonexistent.ttr"}, ""); code != 1 || errOut == "" {
		t.Error("missing file should exit 1 with a message")
	}
	// The VM records no events: refused before anything runs, in tetrad's words.
	if code, out, errOut := run(t, []string{"-vm", "-race", write(t, sumProgram)}, ""); code != 2 || out != "" ||
		!strings.Contains(errOut, `trace and race require the "interp" backend`) {
		t.Errorf("-vm -race: code=%d out=%q err=%q, want exit 2 and no run", code, out, errOut)
	}
}

func TestOptLevelFlag(t *testing.T) {
	path := write(t, sumProgram)
	// Identical output at every level, on the VM path.
	var first string
	for i, lvl := range []string{"0", "1", "2"} {
		code, out, errOut := run(t, []string{"-vm", "-O", lvl, path}, "")
		if code != 0 || errOut != "" {
			t.Fatalf("-O %s: code=%d err=%q", lvl, code, errOut)
		}
		if i == 0 {
			first = out
		} else if out != first {
			t.Errorf("-O %s output %q differs from -O 0 output %q", lvl, out, first)
		}
	}
}

func TestDisasmRespectsOptLevel(t *testing.T) {
	path := write(t, "def main():\n    i = 0\n    while i < 10:\n        i += 1\n    print(i)\n")
	_, raw, _ := run(t, []string{"-disasm", "-O", "0", path}, "")
	_, opt, _ := run(t, []string{"-disasm", "-O", "2", path}, "")
	// Both operands are ints, so the compare is lt.i and fuses, with the
	// constant and the branch, into the typed compare-jumps of a rotated
	// loop: jge.ik on entry, jlt.ik at the bottom.
	if !strings.Contains(raw, " lt.i ") || strings.Contains(raw, " jge.") || strings.Contains(raw, " jlt.") {
		t.Errorf("-O 0 disassembly should show raw compare, no fusion:\n%s", raw)
	}
	if !strings.Contains(opt, " jge.ik ") || !strings.Contains(opt, " jlt.ik ") {
		t.Errorf("-O 2 disassembly missing fused compare-jump:\n%s", opt)
	}
	if len(opt) >= len(raw) {
		t.Errorf("optimized disassembly not shorter: %d vs %d bytes", len(opt), len(raw))
	}
}
