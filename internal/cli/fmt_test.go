package cli

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/parity"
)

const messySource = "def main():\n        x=1+2 *3\n        if x>5:\n                print( x )\n"

const canonicalSource = `def main():
    x = 1 + 2 * 3
    if x > 5:
        print(x)
`

func TestFormatToStdout(t *testing.T) {
	path := write(t, messySource)
	var out, errOut bytes.Buffer
	code := FormatMain([]string{path}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if out.String() != canonicalSource {
		t.Errorf("formatted = %q, want %q", out.String(), canonicalSource)
	}
}

func TestFormatIdempotent(t *testing.T) {
	path := write(t, canonicalSource)
	var out, errOut bytes.Buffer
	if code := FormatMain([]string{path}, &out, &errOut); code != 0 {
		t.Fatal(errOut.String())
	}
	if out.String() != canonicalSource {
		t.Errorf("canonical source changed by formatting:\n%s", out.String())
	}
}

func TestFormatWrite(t *testing.T) {
	path := write(t, messySource)
	var out, errOut bytes.Buffer
	if code := FormatMain([]string{"-w", path}, &out, &errOut); code != 0 {
		t.Fatal(errOut.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != canonicalSource {
		t.Errorf("file = %q", data)
	}
	if out.Len() != 0 {
		t.Errorf("-w printed output: %q", out.String())
	}
}

func TestFormatList(t *testing.T) {
	messy := write(t, messySource)
	clean := filepath.Join(t.TempDir(), "clean.ttr")
	if err := os.WriteFile(clean, []byte(canonicalSource), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if code := FormatMain([]string{"-l", messy, clean}, &out, &errOut); code != 0 {
		t.Fatal(errOut.String())
	}
	if !strings.Contains(out.String(), messy) {
		t.Error("-l did not list the messy file")
	}
	if strings.Contains(out.String(), clean) {
		t.Error("-l listed the canonical file")
	}
}

func TestFormatSyntaxError(t *testing.T) {
	path := write(t, "def main(:\n")
	var out, errOut bytes.Buffer
	if code := FormatMain([]string{path}, &out, &errOut); code != 1 {
		t.Error("syntax error should exit 1")
	}
	if !strings.Contains(errOut.String(), "syntax error") {
		t.Errorf("stderr = %q", errOut.String())
	}
}

func TestFormatUsage(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := FormatMain(nil, &out, &errOut); code != 2 {
		t.Error("no args should exit 2")
	}
}

// TestFormatCorpusIdempotent formats every corpus program twice: the
// second pass must be a fixpoint, and the formatted program must still
// run identically (checked implicitly by the parser round-trip property;
// here we just assert the fixpoint over real files).
func TestFormatCorpusIdempotent(t *testing.T) {
	for _, c := range parity.Corpus(t) {
		var once bytes.Buffer
		if code := FormatMain([]string{write(t, c.Src)}, &once, os.Stderr); code != 0 {
			t.Fatalf("%s did not format", c.Name)
		}
		var twice bytes.Buffer
		if code := FormatMain([]string{write(t, once.String())}, &twice, os.Stderr); code != 0 {
			t.Fatalf("%s did not re-format", c.Name)
		}
		if once.String() != twice.String() {
			t.Errorf("%s: formatting is not a fixpoint", c.Name)
		}
	}
}
