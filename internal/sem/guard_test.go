package sem

// The drift guard: a source-level check that no backend has regrown a
// local implementation of semantics that belong in this package. It scans
// the backend sources for the tell-tale tokens of a reimplementation —
// canonical error strings, rune decoding, modulo kernels — and fails with
// the offending file and line. CI's race run of every package includes it,
// so a PR that reintroduces drift fails even if its author never ran this
// package's tests.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// guardedFiles are the backend sources that must stay semantics-free.
// internal/stdlib is included: it may dispatch and do I/O, but kernels
// live here.
var guardedFiles = []string{
	"../interp/interp.go",
	"../vm/vm.go",
	"../bytecode/optimize.go",
	"../bytecode/compile.go",
	"../gort/gort.go",
	"../stdlib/stdlib.go",
	"../gogen/gogen.go",
}

// forbidden are substrings whose presence in a backend source means a
// semantics rule has been reimplemented outside sem. Each entry carries
// the reason so the failure explains itself.
var forbidden = []struct{ token, reason string }{
	{`"division by zero"`, "canonical error string belongs in sem (MsgDivisionByZero)"},
	{`"modulo by zero"`, "canonical error string belongs in sem (MsgModuloByZero)"},
	{`out of range for array`, "array bounds error belongs in sem (ErrArrayIndex)"},
	{`out of range for string`, "string bounds error belongs in sem (ErrStringIndex)"},
	{`strings are immutable`, "immutability error belongs in sem (ErrImmutableStr)"},
	{`too large`, "range-size errors belong in sem (RangeLen/RangeNLen)"},
	{`cannot parse`, "parse-failure wording belongs in sem (ParseInt/ParseReal)"},
	{`utf8.`, "rune decoding belongs in sem (RuneLen/RuneAt/Runes)"},
	{`unicode/utf8`, "rune decoding belongs in sem"},
	{`math.Mod`, "modulo kernel belongs in sem (ModReal)"},
	{`math.Floor`, "floor kernel belongs in sem (Floor)"},
	{`strconv.ParseInt`, "int parsing belongs in sem (ParseInt)"},
	{`strconv.ParseFloat`, "real parsing belongs in sem (ParseReal)"},
	{`strconv.FormatFloat`, "real formatting belongs in sem/value (FormatReal)"},
	{`strings.Repeat`, "repeat kernel belongs in sem (Repeat)"},
	{`strings.ToValidUTF8`, "rune handling belongs in sem"},
}

// exceptions allow specific benign uses, keyed by file base name then
// token. gort parses its TETRA_* environment limits with strconv — that
// is governor configuration, not Tetra semantics; gogen spells a real
// literal as Go source, not as Tetra output.
var exceptions = map[string][]string{
	"gort.go":  {`strconv.ParseInt`},
	"gogen.go": {`strconv.FormatFloat`},
}

func allowed(file, token string) bool {
	for _, t := range exceptions[filepath.Base(file)] {
		if t == token {
			return true
		}
	}
	return false
}

func TestNoSemanticsOutsideSem(t *testing.T) {
	for _, file := range guardedFiles {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatalf("guard cannot read %s: %v", file, err)
		}
		lines := strings.Split(string(data), "\n")
		for i, line := range lines {
			// Comments may mention anything; only code counts. This is a
			// lexical guard, so a string-literal mention of a token inside
			// code still trips it — which is the conservative direction.
			code := line
			if idx := strings.Index(code, "//"); idx >= 0 {
				code = code[:idx]
			}
			for _, f := range forbidden {
				if strings.Contains(code, f.token) && !allowed(file, f.token) {
					t.Errorf("%s:%d reimplements semantics outside internal/sem (%s): %s\n    %s",
						file, i+1, f.token, f.reason, strings.TrimSpace(line))
				}
			}
		}
	}
}
