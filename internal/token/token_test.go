package token

import "testing"

func TestKindString(t *testing.T) {
	cases := []struct {
		k    Kind
		want string
	}{
		{EOF, "EOF"},
		{NEWLINE, "NEWLINE"},
		{INDENT, "INDENT"},
		{DEDENT, "DEDENT"},
		{IDENT, "IDENT"},
		{INT, "INT"},
		{REAL, "REAL"},
		{STRING, "STRING"},
		{PLUS, "+"},
		{DOTDOT, ".."},
		{PERCENTASSIGN, "%="},
		{DEF, "def"},
		{PARALLEL, "parallel"},
		{BACKGROUND, "background"},
		{LOCK, "lock"},
		{TINT, "int"},
		{TBOOL, "bool"},
	}
	for _, c := range cases {
		if got := c.k.String(); got != c.want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(c.k), got, c.want)
		}
	}
	if got := Kind(9999).String(); got != "Kind(9999)" {
		t.Errorf("unknown kind rendered %q", got)
	}
}

func TestLookupKeywords(t *testing.T) {
	keywords := map[string]Kind{
		"def": DEF, "if": IF, "elif": ELIF, "else": ELSE,
		"while": WHILE, "for": FOR, "in": IN, "return": RETURN,
		"break": BREAK, "continue": CONTINUE, "pass": PASS,
		"parallel": PARALLEL, "background": BACKGROUND, "lock": LOCK,
		"and": AND, "or": OR, "not": NOT,
		"true": TRUE, "false": FALSE,
		"int": TINT, "real": TREAL, "string": TSTRING, "bool": TBOOL,
	}
	for name, want := range keywords {
		if got := Lookup(name); got != want {
			t.Errorf("Lookup(%q) = %v, want %v", name, got, want)
		}
	}
	// Every kind between the keyword markers is a keyword Lookup knows.
	for k := keywordBeg + 1; k < keywordEnd; k++ {
		if got := Lookup(k.String()); got != k {
			t.Errorf("Lookup(%q) = %v, want %v", k.String(), got, k)
		}
	}
	for _, name := range []string{"x", "Def", "PARALLEL", "main", "_", "lockx", "int32"} {
		if got := Lookup(name); got != IDENT {
			t.Errorf("Lookup(%q) = %v, want IDENT", name, got)
		}
	}
}

func TestPos(t *testing.T) {
	p := Pos{File: "a.ttr", Line: 3, Col: 7}
	if got := p.String(); got != "a.ttr:3:7" {
		t.Errorf("Pos.String() = %q", got)
	}
	if !p.IsValid() {
		t.Error("valid position reported invalid")
	}
	anon := Pos{Line: 2, Col: 1}
	if got := anon.String(); got != "2:1" {
		t.Errorf("anonymous Pos.String() = %q", got)
	}
	var zero Pos
	if zero.IsValid() {
		t.Error("zero position reported valid")
	}
	if got := zero.String(); got != "-" {
		t.Errorf("zero Pos.String() = %q", got)
	}
}

func TestTokenString(t *testing.T) {
	cases := []struct {
		tok  Token
		want string
	}{
		{Token{Kind: IDENT, Lit: "x"}, "IDENT(x)"},
		{Token{Kind: INT, Lit: "42"}, "INT(42)"},
		{Token{Kind: STRING, Lit: "a\nb"}, `STRING("a\nb")`},
		{Token{Kind: PLUS}, "+"},
		{Token{Kind: DEF}, "def"},
	}
	for _, c := range cases {
		if got := c.tok.String(); got != c.want {
			t.Errorf("Token.String() = %q, want %q", got, c.want)
		}
	}
}
