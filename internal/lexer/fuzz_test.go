package lexer_test

import (
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/lexer"
	"repro/internal/token"
)

// fuzzSeeds are FuzzLex's corpus; the token golden records them too.
var fuzzSeeds = []string{
	"",
	"def main():\n    pass\n",
	"x = 1.5e10 # comment\n",
	"\t  mixed indentation\n        deeper\n",
	"\"unterminated",
	"'c'",
	"\x00\x01\x02",
	"a\r\nb\rc\n",
	"if elif else while for in and or not true false int real string bool",
	"0x1F 1e999 ..... == != <= >= += -= *= /= %=",
	"café = 1\nπ2 = café + ñandú_3\n",
	"x = ٣\n",
	"x٣ = 1٣\n",
	"x\t=\t1\t+\t2.5e3\t# tab\n",
	"s = \"é\" + abc + 12\n",
	"def main():\r\n    x = 1\r\n\r\n    print(x)\r\n",
}

// FuzzLex asserts the lexer never panics and that its stream is sound:
// every token stream ends in EOF or an error; every IDENT, INT and REAL
// literal is the source text at its position, columns counted in runes;
// positions never move backwards; and a second run gives the same stream.
func FuzzLex(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		toks, err := lexer.Tokens("fuzz.ttr", src)
		if err == nil && len(toks) == 0 {
			t.Fatal("Tokens returned no tokens and no error")
		}
		lines := sourceLines(src)
		var prev token.Pos
		for _, tok := range toks {
			if tok.Pos.Line < prev.Line || (tok.Pos.Line == prev.Line && tok.Pos.Col < prev.Col) {
				t.Fatalf("%s at %d:%d after %d:%d", tok.Kind, tok.Pos.Line, tok.Pos.Col, prev.Line, prev.Col)
			}
			prev = tok.Pos
			switch tok.Kind {
			case token.IDENT, token.INT, token.REAL:
				if got := textAt(lines, tok.Pos, tok.Lit); got != tok.Lit {
					t.Fatalf("%s %q at %d:%d, source there reads %q", tok.Kind, tok.Lit, tok.Pos.Line, tok.Pos.Col, got)
				}
			}
		}
		again, err2 := lexer.Tokens("fuzz.ttr", src)
		if (err == nil) != (err2 == nil) || (err != nil && err.Error() != err2.Error()) {
			t.Fatalf("second run: error %v, first %v", err2, err)
		}
		if len(again) != len(toks) {
			t.Fatalf("second run: %d tokens, first %d", len(again), len(toks))
		}
		for i := range toks {
			if again[i] != toks[i] {
				t.Fatalf("second run: token %d is %v, first %v", i, again[i], toks[i])
			}
		}
	})
}

// sourceLines splits src into physical lines as the lexer counts them:
// "\r\n" and a lone "\r" end a line like "\n".
func sourceLines(src string) []string {
	src = strings.ReplaceAll(src, "\r\n", "\n")
	src = strings.ReplaceAll(src, "\r", "\n")
	return strings.Split(src, "\n")
}

// textAt returns the source text at pos as long as lit, in runes: a byte
// that is not valid UTF-8 is one column, as the lexer counts it.
func textAt(lines []string, pos token.Pos, lit string) string {
	if pos.Line < 1 || pos.Line > len(lines) {
		return ""
	}
	line := lines[pos.Line-1]
	for col := 1; col < pos.Col; col++ {
		if line == "" {
			return ""
		}
		_, w := utf8.DecodeRuneInString(line)
		line = line[w:]
	}
	if len(line) > len(lit) {
		line = line[:len(lit)]
	}
	return line
}
