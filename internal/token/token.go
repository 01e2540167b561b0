// Package token defines the lexical tokens of the Tetra language and the
// source positions attached to them.
//
// Tetra borrows its surface syntax from Python: blocks are delimited by a
// colon plus indentation, comments begin with '#', and newlines terminate
// simple statements. The lexer therefore produces three synthetic tokens in
// addition to the visible ones: NEWLINE, INDENT and DEDENT.
package token

import "fmt"

// Kind identifies the lexical class of a token.
type Kind int

// The list of token kinds.
const (
	ILLEGAL Kind = iota
	EOF

	// Synthetic layout tokens.
	NEWLINE // logical end of line
	INDENT  // increase in indentation depth
	DEDENT  // decrease in indentation depth

	// Literals and names.
	IDENT  // max
	INT    // 123
	REAL   // 1.5, 2e10
	STRING // "hello"

	// Operators and delimiters.
	PLUS    // +
	MINUS   // -
	STAR    // *
	SLASH   // /
	PERCENT // %

	ASSIGN        // =
	PLUSASSIGN    // +=
	MINUSASSIGN   // -=
	STARASSIGN    // *=
	SLASHASSIGN   // /=
	PERCENTASSIGN // %=

	EQ // ==
	NE // !=
	LT // <
	LE // <=
	GT // >
	GE // >=

	LPAREN   // (
	RPAREN   // )
	LBRACKET // [
	RBRACKET // ]
	COMMA    // ,
	COLON    // :
	DOTDOT   // ..

	// Keywords.
	keywordBeg
	DEF
	IF
	ELIF
	ELSE
	WHILE
	FOR
	IN
	RETURN
	BREAK
	CONTINUE
	PASS
	PARALLEL
	BACKGROUND
	LOCK
	AND
	OR
	NOT
	TRUE
	FALSE
	TINT    // type name "int"
	TREAL   // type name "real"
	TSTRING // type name "string"
	TBOOL   // type name "bool"
	keywordEnd
)

var kindNames = map[Kind]string{
	ILLEGAL: "ILLEGAL",
	EOF:     "EOF",
	NEWLINE: "NEWLINE",
	INDENT:  "INDENT",
	DEDENT:  "DEDENT",

	IDENT:  "IDENT",
	INT:    "INT",
	REAL:   "REAL",
	STRING: "STRING",

	PLUS:    "+",
	MINUS:   "-",
	STAR:    "*",
	SLASH:   "/",
	PERCENT: "%",

	ASSIGN:        "=",
	PLUSASSIGN:    "+=",
	MINUSASSIGN:   "-=",
	STARASSIGN:    "*=",
	SLASHASSIGN:   "/=",
	PERCENTASSIGN: "%=",

	EQ: "==",
	NE: "!=",
	LT: "<",
	LE: "<=",
	GT: ">",
	GE: ">=",

	LPAREN:   "(",
	RPAREN:   ")",
	LBRACKET: "[",
	RBRACKET: "]",
	COMMA:    ",",
	COLON:    ":",
	DOTDOT:   "..",

	DEF:        "def",
	IF:         "if",
	ELIF:       "elif",
	ELSE:       "else",
	WHILE:      "while",
	FOR:        "for",
	IN:         "in",
	RETURN:     "return",
	BREAK:      "break",
	CONTINUE:   "continue",
	PASS:       "pass",
	PARALLEL:   "parallel",
	BACKGROUND: "background",
	LOCK:       "lock",
	AND:        "and",
	OR:         "or",
	NOT:        "not",
	TRUE:       "true",
	FALSE:      "false",
	TINT:       "int",
	TREAL:      "real",
	TSTRING:    "string",
	TBOOL:      "bool",
}

// String returns the printable name of the kind: the literal spelling for
// operators and keywords, an upper-case class name otherwise.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

var keywords = func() map[string]Kind {
	m := make(map[string]Kind)
	for k := keywordBeg + 1; k < keywordEnd; k++ {
		m[kindNames[k]] = k
	}
	return m
}()

// Lookup maps an identifier spelling to its keyword kind, or IDENT if the
// spelling is not reserved.
func Lookup(name string) Kind {
	if k, ok := keywords[name]; ok {
		return k
	}
	return IDENT
}

// Pos is a source position: 1-based line and column within a named file.
// The zero Pos is "no position".
type Pos struct {
	File string
	Line int
	Col  int
}

// IsValid reports whether the position carries location information.
func (p Pos) IsValid() bool { return p.Line > 0 }

// String formats the position as file:line:col, omitting empty parts.
func (p Pos) String() string {
	if !p.IsValid() {
		return "-"
	}
	if p.File == "" {
		return fmt.Sprintf("%d:%d", p.Line, p.Col)
	}
	return fmt.Sprintf("%s:%d:%d", p.File, p.Line, p.Col)
}

// Token is a single lexical token with its source position and, for literal
// classes, the literal text.
type Token struct {
	Kind Kind
	Lit  string // literal text for IDENT, INT, REAL, STRING (decoded), ILLEGAL
	Pos  Pos
}

// String renders the token for diagnostics.
func (t Token) String() string {
	switch t.Kind {
	case IDENT, INT, REAL, ILLEGAL:
		return fmt.Sprintf("%s(%s)", t.Kind, t.Lit)
	case STRING:
		return fmt.Sprintf("STRING(%q)", t.Lit)
	default:
		return t.Kind.String()
	}
}
