package lexer

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/token"
)

// kinds scans src and returns just the token kinds, failing the test on a
// lexical error.
func kinds(t *testing.T, src string) []token.Kind {
	t.Helper()
	toks, err := Tokens("test.ttr", src)
	if err != nil {
		t.Fatalf("lex %q: %v", src, err)
	}
	out := make([]token.Kind, len(toks))
	for i, tok := range toks {
		out[i] = tok.Kind
	}
	return out
}

func eq(a, b []token.Kind) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSimpleStatement(t *testing.T) {
	got := kinds(t, "x = 1 + 2\n")
	want := []token.Kind{token.IDENT, token.ASSIGN, token.INT, token.PLUS, token.INT, token.NEWLINE, token.EOF}
	if !eq(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestIndentation(t *testing.T) {
	src := "def f():\n    x = 1\n    if x:\n        y = 2\n    z = 3\n"
	got := kinds(t, src)
	want := []token.Kind{
		token.DEF, token.IDENT, token.LPAREN, token.RPAREN, token.COLON, token.NEWLINE,
		token.INDENT,
		token.IDENT, token.ASSIGN, token.INT, token.NEWLINE,
		token.IF, token.IDENT, token.COLON, token.NEWLINE,
		token.INDENT,
		token.IDENT, token.ASSIGN, token.INT, token.NEWLINE,
		token.DEDENT,
		token.IDENT, token.ASSIGN, token.INT, token.NEWLINE,
		token.DEDENT,
		token.EOF,
	}
	if !eq(got, want) {
		t.Errorf("got  %v\nwant %v", got, want)
	}
}

func TestDedentAtEOFWithoutNewline(t *testing.T) {
	// Missing final newline must still close the statement and all blocks.
	got := kinds(t, "def f():\n    x = 1")
	want := []token.Kind{
		token.DEF, token.IDENT, token.LPAREN, token.RPAREN, token.COLON, token.NEWLINE,
		token.INDENT, token.IDENT, token.ASSIGN, token.INT, token.NEWLINE, token.DEDENT, token.EOF,
	}
	if !eq(got, want) {
		t.Errorf("got  %v\nwant %v", got, want)
	}
}

func TestBlankAndCommentLinesIgnored(t *testing.T) {
	src := "x = 1\n\n   \n# a comment\n  # indented comment\ny = 2\n"
	got := kinds(t, src)
	want := []token.Kind{
		token.IDENT, token.ASSIGN, token.INT, token.NEWLINE,
		token.IDENT, token.ASSIGN, token.INT, token.NEWLINE,
		token.EOF,
	}
	if !eq(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestTrailingCommentOnStatement(t *testing.T) {
	got := kinds(t, "x = 1 # set x\n")
	want := []token.Kind{token.IDENT, token.ASSIGN, token.INT, token.NEWLINE, token.EOF}
	if !eq(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestBracketContinuation(t *testing.T) {
	// Newlines inside brackets are insignificant; the statement continues.
	src := "x = [1,\n     2,\n     3]\n"
	got := kinds(t, src)
	want := []token.Kind{
		token.IDENT, token.ASSIGN, token.LBRACKET,
		token.INT, token.COMMA, token.INT, token.COMMA, token.INT,
		token.RBRACKET, token.NEWLINE, token.EOF,
	}
	if !eq(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestParenContinuation(t *testing.T) {
	src := "y = f(1,\n  2)\n"
	got := kinds(t, src)
	want := []token.Kind{
		token.IDENT, token.ASSIGN, token.IDENT, token.LPAREN,
		token.INT, token.COMMA, token.INT, token.RPAREN, token.NEWLINE, token.EOF,
	}
	if !eq(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestOperators(t *testing.T) {
	src := "a += 1\nb -= 2\nc *= 3\nd /= 4\ne %= 5\nf == g\nh != i\nj <= k\nl >= m\nn < o\np > q\n"
	toks, err := Tokens("t", src)
	if err != nil {
		t.Fatal(err)
	}
	var ops []token.Kind
	for _, tok := range toks {
		switch tok.Kind {
		case token.PLUSASSIGN, token.MINUSASSIGN, token.STARASSIGN, token.SLASHASSIGN,
			token.PERCENTASSIGN, token.EQ, token.NE, token.LE, token.GE, token.LT, token.GT:
			ops = append(ops, tok.Kind)
		}
	}
	want := []token.Kind{
		token.PLUSASSIGN, token.MINUSASSIGN, token.STARASSIGN, token.SLASHASSIGN,
		token.PERCENTASSIGN, token.EQ, token.NE, token.LE, token.GE, token.LT, token.GT,
	}
	if !eq(ops, want) {
		t.Errorf("ops = %v, want %v", ops, want)
	}
}

func TestNumbers(t *testing.T) {
	cases := []struct {
		src  string
		kind token.Kind
		lit  string
	}{
		{"0", token.INT, "0"},
		{"42", token.INT, "42"},
		{"3.14", token.REAL, "3.14"},
		{"1e10", token.REAL, "1e10"},
		{"2.5e-3", token.REAL, "2.5e-3"},
		{"1E+2", token.REAL, "1E+2"},
	}
	for _, c := range cases {
		toks, err := Tokens("t", c.src+"\n")
		if err != nil {
			t.Fatalf("lex %q: %v", c.src, err)
		}
		if toks[0].Kind != c.kind || toks[0].Lit != c.lit {
			t.Errorf("%q → %v(%q), want %v(%q)", c.src, toks[0].Kind, toks[0].Lit, c.kind, c.lit)
		}
	}
}

func TestRangeVsReal(t *testing.T) {
	// "1..10" must lex as INT DOTDOT INT, not as a malformed real.
	got := kinds(t, "[1..10]\n")
	want := []token.Kind{token.LBRACKET, token.INT, token.DOTDOT, token.INT, token.RBRACKET, token.NEWLINE, token.EOF}
	if !eq(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
	// With spaces too.
	got = kinds(t, "[1 .. 10]\n")
	if !eq(got, want) {
		t.Errorf("spaced: got %v, want %v", got, want)
	}
}

func TestIdentifierVsE(t *testing.T) {
	// "1e" is INT followed by IDENT e (no exponent digits).
	toks, err := Tokens("t", "x = 1e\n")
	if err != nil {
		t.Fatal(err)
	}
	if toks[2].Kind != token.INT || toks[3].Kind != token.IDENT || toks[3].Lit != "e" {
		t.Errorf("1e lexed as %v %v", toks[2], toks[3])
	}
}

func TestStringEscapes(t *testing.T) {
	toks, err := Tokens("t", `s = "a\nb\t\"q\"\\"`+"\n")
	if err != nil {
		t.Fatal(err)
	}
	want := "a\nb\t\"q\"\\"
	if toks[2].Kind != token.STRING || toks[2].Lit != want {
		t.Errorf("string = %q, want %q", toks[2].Lit, want)
	}
}

func TestKeywordsLexed(t *testing.T) {
	got := kinds(t, "parallel for x in nums:\n    pass\n")
	want := []token.Kind{
		token.PARALLEL, token.FOR, token.IDENT, token.IN, token.IDENT, token.COLON, token.NEWLINE,
		token.INDENT, token.PASS, token.NEWLINE, token.DEDENT, token.EOF,
	}
	if !eq(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestCRLFNormalized(t *testing.T) {
	got := kinds(t, "x = 1\r\ny = 2\r\n")
	want := []token.Kind{
		token.IDENT, token.ASSIGN, token.INT, token.NEWLINE,
		token.IDENT, token.ASSIGN, token.INT, token.NEWLINE, token.EOF,
	}
	if !eq(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestTabsExpandToEight(t *testing.T) {
	// A tab indents to column 8; four spaces then dedenting to tab level is
	// a mismatch.
	src := "if x:\n\ty = 1\n\tz = 2\n"
	got := kinds(t, src)
	want := []token.Kind{
		token.IF, token.IDENT, token.COLON, token.NEWLINE,
		token.INDENT, token.IDENT, token.ASSIGN, token.INT, token.NEWLINE,
		token.IDENT, token.ASSIGN, token.INT, token.NEWLINE,
		token.DEDENT, token.EOF,
	}
	if !eq(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestErrors(t *testing.T) {
	cases := []struct {
		src    string
		substr string
	}{
		{"x = \"unterminated\n", "unterminated string"},
		{"x = \"bad \\q escape\"\n", "unknown escape"},
		{"x = 1 ! 2\n", "unexpected character"},
		{"x = 1 . 2\n", "unexpected character"},
		{"x = @\n", "unexpected character"},
		{"if x:\n        y = 1\n   z = 2\n", "unindent does not match"},
	}
	for _, c := range cases {
		_, err := Tokens("t", c.src)
		if err == nil {
			t.Errorf("lex %q: expected error containing %q, got none", c.src, c.substr)
			continue
		}
		if !strings.Contains(err.Error(), c.substr) {
			t.Errorf("lex %q: error %q does not contain %q", c.src, err, c.substr)
		}
	}
}

func TestErrorPosition(t *testing.T) {
	_, err := Tokens("file.ttr", "x = 1\ny = \"oops\n")
	if err == nil {
		t.Fatal("expected error")
	}
	lerr, ok := err.(*Error)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if lerr.Pos.Line != 2 {
		t.Errorf("error line = %d, want 2", lerr.Pos.Line)
	}
	if lerr.Pos.File != "file.ttr" {
		t.Errorf("error file = %q", lerr.Pos.File)
	}
}

func TestNextAfterEOF(t *testing.T) {
	lx := New("t", "x\n")
	for i := 0; i < 10; i++ {
		tok := lx.Next()
		if tok.Kind == token.EOF {
			// Further calls must keep returning EOF.
			for j := 0; j < 3; j++ {
				if k := lx.Next().Kind; k != token.EOF {
					t.Fatalf("after EOF got %v", k)
				}
			}
			return
		}
	}
	t.Fatal("never reached EOF")
}

// Property: the lexer never panics, always terminates with EOF or ILLEGAL,
// and token positions are monotonically non-decreasing.
func TestLexerRobustness(t *testing.T) {
	f := func(src string) bool {
		lx := New("fuzz", src)
		prevLine, prevCol := 0, 0
		for i := 0; i < 100000; i++ {
			tok := lx.Next()
			if tok.Kind == token.EOF || tok.Kind == token.ILLEGAL {
				return true
			}
			if tok.Pos.Line < prevLine || (tok.Pos.Line == prevLine && tok.Pos.Col < prevCol) {
				// DEDENT/NEWLINE tokens synthesized at EOF share positions;
				// they may repeat but must not go backwards.
				return false
			}
			prevLine, prevCol = tok.Pos.Line, tok.Pos.Col
		}
		return false // did not terminate
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: lexing the same source twice yields the identical stream.
func TestLexerDeterministic(t *testing.T) {
	f := func(src string) bool {
		a, errA := Tokens("f", src)
		b, errB := Tokens("f", src)
		if (errA == nil) != (errB == nil) {
			return false
		}
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// A number literal is ASCII digits. A Unicode digit starting a literal is
// an unexpected character, one after an ASCII digit ends the literal
// there, and one inside an identifier belongs to it.
func TestUnicodeDigits(t *testing.T) {
	cases := []struct {
		src, err string
		toks     []token.Token
	}{
		{src: "x = ٣\n", err: "t:1:5: unexpected character '٣'"},
		{src: "x = 1٣\n", err: "t:1:6: unexpected character '٣'",
			toks: []token.Token{{Kind: token.INT, Lit: "1", Pos: token.Pos{File: "t", Line: 1, Col: 5}}}},
		{src: "x٣ = 2\n", toks: []token.Token{
			{Kind: token.IDENT, Lit: "x٣", Pos: token.Pos{File: "t", Line: 1, Col: 1}},
			{Kind: token.ASSIGN, Pos: token.Pos{File: "t", Line: 1, Col: 4}},
			{Kind: token.INT, Lit: "2", Pos: token.Pos{File: "t", Line: 1, Col: 6}}}},
	}
	for _, c := range cases {
		toks, err := Tokens("t", c.src)
		if got := fmt.Sprint(err); (c.err == "" && err != nil) || (c.err != "" && got != c.err) {
			t.Errorf("lex %q: error %v, want %q", c.src, err, c.err)
		}
		for _, want := range c.toks {
			found := false
			for _, tok := range toks {
				found = found || tok == want
			}
			if !found {
				t.Errorf("lex %q: no token %v at %v in %v", c.src, want, want.Pos, toks)
			}
		}
	}
}
