package bytecode

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/parser"
)

var updateGolden = flag.Bool("update", false, "rewrite the disassembler golden file")

// TestDisassembleGolden pins the full disassembly of a program exercising
// every operand style — named slots, temporaries, typed opcodes and
// superinstructions, cell access, calls, sub-chunks, locks —
// so any format drift (which internal/vm's differentials and grading
// tools parse) shows up as a diff.
// Regenerate deliberately with: go test ./internal/bytecode -run Golden -update
func TestDisassembleGolden(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "disasm.ttr"))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := parser.Parse("disasm.ttr", string(src))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := check.Check(prog); err != nil {
		t.Fatalf("check: %v", err)
	}
	bc, err := Compile(prog)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	Optimize(bc, O2)
	got := DisassembleProgram(bc)

	goldenPath := filepath.Join("testdata", "disasm.golden")
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if got != string(want) {
		t.Errorf("disassembly drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	// Belt and braces on the properties the golden encodes, so a careless
	// -update cannot silently bless a regression.
	for _, want := range []string{
		"r0=x",                  // variable slots carry source names
		"add.ik",                // fused constant arithmetic: inc's x + 1
		"div.rk",                // mean's a[i] / 2 divides reals by the real constant
		"arithk",                // string + with a constant operand is the untyped one
		"stepjlt.ki",            // mean's loop tests at its bottom, where i += 1 joins the test
		"fornext",               // and main's for loop steps at its bottom
		"ldcell",                // a shared function reads its variables from cells
		"stcell",                // and writes them back
		"c0=total",              // cells carry source names too
		"fn#1, args",            // a call names its callee by index (mean's loop keeps it a call)
		"tailcall   fn#2, args", // gcd's self call in tail position runs in place
		"chunk 1",               // parallel bodies are sub-chunks
		"lock#0",                // lock ops reference the program lock table
		"locks: report",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("disassembly missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "fn#0, args") {
		t.Errorf("main still calls inc, a small leaf:\n%s", got)
	}
}

// TestDisassembleStableUnderReruns guards the no-hidden-state property:
// disassembling the same program twice must be byte-identical (the
// renderer reads the Program, never mutates it).
func TestDisassembleStableUnderReruns(t *testing.T) {
	bc := compileSrc(t, "def main():\n    x = 1\n    print(x + 2)\n")
	Optimize(bc, O2)
	a := DisassembleProgram(bc)
	b := DisassembleProgram(bc)
	if a != b {
		t.Error("disassembly differs between runs over the same program")
	}
}
