package lexer_test

import (
	"flag"
	"fmt"
	goast "go/ast"
	goparser "go/parser"
	gotoken "go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lexer"
	"repro/internal/parity"
	"repro/internal/token"
)

var update = flag.Bool("update", false, "rewrite testdata/tokens.golden")

// TestTokenGolden pins the token stream — kind, literal, line and column
// of every token, and the error if any — of the golden corpus, the
// benchmark's programs, the Tetra programs embedded in examples/, the
// other testdata programs and FuzzLex's seeds. A change to how the
// scanner works must leave it byte-identical.
// Regenerate deliberately with: go test ./internal/lexer -run TokenGolden -update
func TestTokenGolden(t *testing.T) {
	got := tokenStreams(t)
	path := filepath.Join("testdata", "tokens.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			t.Fatalf("token stream drifted from %s at line %d:\n got  %s\n want %s", path, i+1, g[i], w[i])
		}
	}
	t.Fatalf("token stream drifted from %s: %d lines, want %d", path, len(g), len(w))
}

// tokenStreams renders every source's stream. Sources with the same text
// (benchmark/programs copies the corpus) share one section.
func tokenStreams(t *testing.T) string {
	t.Helper()
	var names []string
	srcs := map[string]string{} // name → source
	add := func(name, src string) {
		names = append(names, name)
		srcs[name] = src
	}
	for _, c := range parity.Corpus(t) {
		add("corpus/"+c.File, c.Src)
	}
	for _, pattern := range []string{"../../benchmark/programs/*.ttr", "../../testdata/*.ttr", "../bytecode/testdata/*.ttr"} {
		paths, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range paths {
			b, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			add(strings.TrimPrefix(filepath.ToSlash(p), "../../"), string(b))
		}
	}
	examples, err := filepath.Glob("../../examples/*/main.go")
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(examples)
	for _, p := range examples {
		for i, src := range embeddedPrograms(t, p) {
			add(fmt.Sprintf("%s#%d", strings.TrimPrefix(filepath.ToSlash(p), "../../"), i), src)
		}
	}
	for i, src := range fuzzSeeds {
		add(fmt.Sprintf("FuzzLex/seed#%d", i), src)
	}

	var sb strings.Builder
	done := map[string]bool{} // sources already written
	for _, name := range names {
		src := srcs[name]
		if done[src] {
			continue
		}
		done[src] = true
		sb.WriteString("==")
		for _, n := range names {
			if srcs[n] == src {
				sb.WriteString(" " + n)
			}
		}
		sb.WriteString("\n")
		writeStream(&sb, src)
	}
	return sb.String()
}

// writeStream writes one line per source line that has tokens: the line
// number, then each token as col:kind, with :"lit" when it has a literal.
func writeStream(sb *strings.Builder, src string) {
	toks, err := lexer.Tokens("t.ttr", src)
	line := 0
	for _, tok := range toks {
		if tok.Pos.Line != line {
			if line != 0 {
				sb.WriteString("\n")
			}
			line = tok.Pos.Line
			sb.WriteString(strconv.Itoa(line))
		}
		fmt.Fprintf(sb, " %d:%s", tok.Pos.Col, kindName(tok.Kind))
		if tok.Lit != "" {
			fmt.Fprintf(sb, ":%q", tok.Lit)
		}
	}
	sb.WriteString("\n")
	if err != nil {
		fmt.Fprintf(sb, "error %s\n", err)
	}
}

// kindName spells a kind without spaces or colons, so a row splits
// cleanly.
func kindName(k token.Kind) string {
	if k == token.COLON {
		return "COLON"
	}
	return k.String()
}

// embeddedPrograms returns the string literals of a Go file that are
// whole Tetra programs: those defining main.
func embeddedPrograms(t *testing.T, goFile string) []string {
	t.Helper()
	f, err := goparser.ParseFile(gotoken.NewFileSet(), goFile, nil, 0)
	if err != nil {
		t.Fatalf("parsing %s: %v", goFile, err)
	}
	var out []string
	goast.Inspect(f, func(n goast.Node) bool {
		lit, ok := n.(*goast.BasicLit)
		if !ok || lit.Kind != gotoken.STRING {
			return true
		}
		if s, err := strconv.Unquote(lit.Value); err == nil && strings.Contains(s, "def main():") {
			out = append(out, s)
		}
		return true
	})
	return out
}
