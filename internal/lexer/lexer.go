// Package lexer implements the hand-written Tetra scanner.
//
// The paper notes the lexical analyzer was hand-written "which was necessary
// to handle the significant white space in Tetra". This scanner does the
// same: it tracks a stack of indentation levels and synthesizes NEWLINE,
// INDENT and DEDENT tokens, Python-style. Inside parentheses or brackets,
// newlines are ignored so expressions may span lines.
//
// The scanner works on bytes. Tetra's syntax is ASCII, so identifiers,
// numbers, whitespace, comments and indentation are scanned in byte loops,
// keywords are told from identifiers by token.Lookup's switch, and a
// rune is decoded only at a non-ASCII byte: a letter in an identifier, a
// character in a string or comment, or a stray one that is an error.
// Columns still count runes. Number literals are ASCII digits only.
package lexer

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/token"
)

// Error is a lexical error with its source position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Lexer scans Tetra source text into tokens.
type Lexer struct {
	src  string
	file string

	off    int // byte offset of next rune
	line   int // current line (1-based)
	col    int // current column (1-based, in runes)
	indent []int
	// pending holds synthesized tokens (DEDENTs, trailing NEWLINE) that must
	// be delivered, from pending[head] on, before scanning resumes.
	pending []token.Token
	head    int
	// depth counts open ( and [ pairs; newlines inside are insignificant.
	depth int
	// atLineStart is true when the scanner is positioned at the beginning of
	// a (possibly blank) physical line and must measure indentation.
	atLineStart bool
	// emittedAny tracks whether any significant token has appeared on the
	// current logical line, so blank/comment-only lines produce no NEWLINE.
	emittedAny bool
	err        *Error
	done       bool
}

// New returns a lexer over src. The file name is used in positions only.
func New(file, src string) *Lexer {
	// Normalize line endings so \r\n sources lex like \n sources.
	if strings.IndexByte(src, '\r') >= 0 {
		src = strings.ReplaceAll(src, "\r\n", "\n")
		src = strings.ReplaceAll(src, "\r", "\n")
	}
	return &Lexer{
		src:         src,
		file:        file,
		line:        1,
		col:         1,
		indent:      []int{0},
		atLineStart: true,
	}
}

// Tokens scans the entire input and returns the token stream, ending with
// EOF, or the first lexical error. The stream is built in one allocation
// sized from the source: the golden corpus runs 3.3 bytes to a token, and
// none of its programs under 2.4, so a slice of one token per two bytes
// rarely grows.
func Tokens(file, src string) ([]token.Token, error) {
	lx := New(file, src)
	toks := make([]token.Token, 0, len(src)/2+16)
	for {
		t := lx.Next()
		toks = append(toks, t)
		if t.Kind == token.EOF || t.Kind == token.ILLEGAL {
			break
		}
	}
	if err := lx.Err(); err != nil {
		return toks, err
	}
	return toks, nil
}

// Err returns the first lexical error encountered, if any.
func (lx *Lexer) Err() error {
	if lx.err != nil {
		return lx.err
	}
	return nil
}

func (lx *Lexer) pos() token.Pos {
	return token.Pos{File: lx.file, Line: lx.line, Col: lx.col}
}

// errorf records the error and makes *t the ILLEGAL token carrying it.
func (lx *Lexer) errorf(t *token.Token, pos token.Pos, format string, args ...any) {
	if lx.err == nil {
		lx.err = &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
	}
	lx.done = true
	*t = token.Token{Kind: token.ILLEGAL, Lit: lx.err.Msg, Pos: pos}
}

// peek returns the next rune without consuming it, or -1 at end of input.
func (lx *Lexer) peek() rune {
	if lx.off >= len(lx.src) {
		return -1
	}
	if c := lx.src[lx.off]; c < utf8.RuneSelf {
		return rune(c)
	}
	r, _ := utf8.DecodeRuneInString(lx.src[lx.off:])
	return r
}

// advance consumes one rune and maintains line/column accounting.
func (lx *Lexer) advance() rune {
	if lx.off >= len(lx.src) {
		return -1
	}
	r, w := rune(lx.src[lx.off]), 1
	if r >= utf8.RuneSelf {
		r, w = utf8.DecodeRuneInString(lx.src[lx.off:])
	}
	lx.off += w
	if r == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return r
}

// Next returns the next token in the stream. After EOF or an ILLEGAL token
// it keeps returning EOF. Blank lines and insignificant newlines are
// skipped in its loop. The scanners write the token into Next's result:
// returning it up through them instead copies it at every level, which
// costs a parse about a tenth of its time.
func (lx *Lexer) Next() (t token.Token) {
	for {
		if lx.head < len(lx.pending) {
			t = lx.pending[lx.head]
			lx.head++
			if lx.head == len(lx.pending) {
				lx.pending, lx.head = lx.pending[:0], 0
			}
			return t
		}
		if lx.done {
			return token.Token{Kind: token.EOF, Pos: lx.pos()}
		}
		if lx.atLineStart && lx.depth == 0 {
			if lx.scanLineStart(&t) {
				return t
			}
			if len(lx.pending) > 0 {
				continue
			}
		}
		if lx.scanToken(&t) {
			return t
		}
	}
}

// scanLineStart measures indentation at the start of a logical line,
// skipping blank and comment-only lines entirely. It may queue INDENT or
// DEDENT tokens, or at end of input the closing tokens. It reports whether
// it scanned a token into *t.
func (lx *Lexer) scanLineStart(t *token.Token) bool {
	for {
		// Measure leading whitespace. Tabs count as advancing to the next
		// multiple of 8, matching common Python practice.
		width := 0
	indent:
		for ; lx.off < len(lx.src); lx.off++ {
			switch lx.src[lx.off] {
			case ' ':
				width++
			case '\t':
				width += 8 - width%8
			default:
				break indent
			}
			lx.col++
		}
		if lx.off == len(lx.src) {
			lx.atLineStart = false
			lx.finish()
			return false
		}
		switch lx.src[lx.off] {
		case '#':
			lx.skipComment()
			continue
		case '\n':
			lx.newline()
			continue
		}
		lx.atLineStart = false
		cur := lx.indent[len(lx.indent)-1]
		switch {
		case width > cur:
			lx.indent = append(lx.indent, width)
			*t = token.Token{Kind: token.INDENT, Pos: lx.pos()}
			return true
		case width < cur:
			for len(lx.indent) > 1 && lx.indent[len(lx.indent)-1] > width {
				lx.indent = lx.indent[:len(lx.indent)-1]
				lx.pending = append(lx.pending, token.Token{Kind: token.DEDENT, Pos: lx.pos()})
			}
			if lx.indent[len(lx.indent)-1] != width {
				lx.errorf(t, lx.pos(), "unindent does not match any outer indentation level")
				return true
			}
			return false // deliver queued DEDENTs
		default:
			return false
		}
	}
}

// newline consumes the '\n' at the scan position.
func (lx *Lexer) newline() {
	lx.off++
	lx.line++
	lx.col = 1
}

// finish emits the final NEWLINE (if a statement is open), closes all open
// indentation levels, and queues EOF.
func (lx *Lexer) finish() {
	p := lx.pos()
	if lx.emittedAny {
		lx.pending = append(lx.pending, token.Token{Kind: token.NEWLINE, Pos: p})
		lx.emittedAny = false
	}
	for len(lx.indent) > 1 {
		lx.indent = lx.indent[:len(lx.indent)-1]
		lx.pending = append(lx.pending, token.Token{Kind: token.DEDENT, Pos: p})
	}
	lx.pending = append(lx.pending, token.Token{Kind: token.EOF, Pos: p})
	lx.done = true
}

// skipComment consumes the rest of the line up to its '\n'.
func (lx *Lexer) skipComment() {
	n := strings.IndexByte(lx.src[lx.off:], '\n')
	if n < 0 {
		n = len(lx.src) - lx.off
	}
	lx.col += utf8.RuneCountInString(lx.src[lx.off : lx.off+n])
	lx.off += n
}

// scanToken scans one token after intra-line whitespace and comments into
// *t. It reports false when it consumed an insignificant newline or
// reached the end of input, which queues the closing tokens; Next then
// goes on.
func (lx *Lexer) scanToken(t *token.Token) bool {
	for lx.off < len(lx.src) {
		c := lx.src[lx.off]
		if c == ' ' || c == '\t' {
			lx.off++
			lx.col++
			continue
		}
		if c == '#' {
			lx.skipComment()
		}
		break
	}
	if lx.off == len(lx.src) {
		lx.finish()
		return false
	}

	pos := lx.pos()
	c := lx.src[lx.off]
	switch {
	case c == '\n':
		lx.newline()
		if lx.depth > 0 {
			// Newlines inside brackets are insignificant.
			return false
		}
		lx.atLineStart = true
		if !lx.emittedAny {
			return false
		}
		lx.emittedAny = false
		*t = token.Token{Kind: token.NEWLINE, Pos: pos}
	case class[c]&identStart != 0:
		lx.scanIdent(t, pos)
	case class[c]&digit != 0:
		lx.scanNumber(t, pos)
	case c == '"':
		lx.scanString(t, pos)
	case c >= utf8.RuneSelf && unicode.IsLetter(lx.peek()):
		lx.scanIdent(t, pos)
	default:
		lx.scanOperator(t, pos)
	}
	return true
}

// scanOperator scans an operator or delimiter; anything else is an error.
func (lx *Lexer) scanOperator(t *token.Token, pos token.Pos) {
	r := lx.advance()
	lx.emittedAny = true
	var k token.Kind
	switch r {
	case '(':
		lx.depth++
		k = token.LPAREN
	case ')':
		if lx.depth > 0 {
			lx.depth--
		}
		k = token.RPAREN
	case '[':
		lx.depth++
		k = token.LBRACKET
	case ']':
		if lx.depth > 0 {
			lx.depth--
		}
		k = token.RBRACKET
	case ',':
		k = token.COMMA
	case ':':
		k = token.COLON
	case '+':
		k = lx.withAssign(token.PLUS, token.PLUSASSIGN)
	case '-':
		k = lx.withAssign(token.MINUS, token.MINUSASSIGN)
	case '*':
		k = lx.withAssign(token.STAR, token.STARASSIGN)
	case '/':
		k = lx.withAssign(token.SLASH, token.SLASHASSIGN)
	case '%':
		k = lx.withAssign(token.PERCENT, token.PERCENTASSIGN)
	case '=':
		k = lx.withAssign(token.ASSIGN, token.EQ)
	case '<':
		k = lx.withAssign(token.LT, token.LE)
	case '>':
		k = lx.withAssign(token.GT, token.GE)
	case '!':
		if !lx.accept('=') {
			lx.errorf(t, pos, "unexpected character %q (did you mean !=?)", r)
			return
		}
		k = token.NE
	case '.':
		if lx.accept('.') {
			k = token.DOTDOT
			break
		}
		fallthrough
	default:
		lx.errorf(t, pos, "unexpected character %q", r)
		return
	}
	*t = token.Token{Kind: k, Pos: pos}
}

// accept consumes the ASCII byte c if it is next.
func (lx *Lexer) accept(c byte) bool {
	if lx.off < len(lx.src) && lx.src[lx.off] == c {
		lx.off++
		lx.col++
		return true
	}
	return false
}

// withAssign returns assign if an '=' follows (consuming it), else plain.
func (lx *Lexer) withAssign(plain, assign token.Kind) token.Kind {
	if lx.accept('=') {
		return assign
	}
	return plain
}

// Byte classes of the ASCII characters.
const (
	identStart = 1 << iota // letter or '_'
	identCont              // letter, '_' or digit
	digit                  // '0'-'9'
)

var class = func() (t [256]uint8) {
	for c := 'a'; c <= 'z'; c++ {
		t[c] = identStart | identCont
		t[c-'a'+'A'] = identStart | identCont
	}
	t['_'] = identStart | identCont
	for c := '0'; c <= '9'; c++ {
		t[c] = identCont | digit
	}
	return t
}()

// scanIdent scans an identifier or keyword. A non-ASCII letter or digit
// continues it.
func (lx *Lexer) scanIdent(t *token.Token, pos token.Pos) {
	start := lx.off
	for lx.off < len(lx.src) {
		c := lx.src[lx.off]
		if class[c]&identCont != 0 {
			lx.off++
			lx.col++
			continue
		}
		if c < utf8.RuneSelf {
			break
		}
		r, w := utf8.DecodeRuneInString(lx.src[lx.off:])
		if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
			break
		}
		lx.off += w
		lx.col++
	}
	lit := lx.src[start:lx.off]
	lx.emittedAny = true
	if kind := token.Lookup(lit); kind != token.IDENT {
		*t = token.Token{Kind: kind, Pos: pos}
		return
	}
	*t = token.Token{Kind: token.IDENT, Lit: lit, Pos: pos}
}

// scanNumber scans an INT or a REAL literal: ASCII digits with an optional
// fraction and exponent.
func (lx *Lexer) scanNumber(t *token.Token, pos token.Pos) {
	start := lx.off
	lx.digits()
	isReal := false
	// A '.' begins a fractional part only if followed by a digit; "1..10"
	// must lex as INT DOTDOT INT.
	if lx.byteAt(0) == '.' && class[lx.byteAt(1)]&digit != 0 {
		isReal = true
		lx.off++
		lx.digits()
	}
	if c := lx.byteAt(0); c == 'e' || c == 'E' {
		// Exponent part: e[+-]?digits.
		i := 1
		if s := lx.byteAt(1); s == '+' || s == '-' {
			i = 2
		}
		if class[lx.byteAt(i)]&digit != 0 {
			isReal = true
			lx.off += i
			lx.digits()
		}
	}
	lit := lx.src[start:lx.off]
	lx.col += lx.off - start
	lx.emittedAny = true
	kind := token.INT
	if isReal {
		kind = token.REAL
	}
	*t = token.Token{Kind: kind, Lit: lit, Pos: pos}
}

// digits skips a run of ASCII digits; the caller counts the columns.
func (lx *Lexer) digits() {
	for lx.off < len(lx.src) && class[lx.src[lx.off]]&digit != 0 {
		lx.off++
	}
}

// byteAt returns the byte n past the scan position, or 0 past the end.
func (lx *Lexer) byteAt(n int) byte {
	if lx.off+n < len(lx.src) {
		return lx.src[lx.off+n]
	}
	return 0
}

// scanString scans a string literal. One without escapes, in valid UTF-8,
// is a slice of the source.
func (lx *Lexer) scanString(t *token.Token, pos token.Pos) {
	start := lx.off + 1 // past the opening quote
	for i := start; i < len(lx.src); {
		c := lx.src[i]
		if c == '"' {
			lit := lx.src[start:i]
			lx.col += utf8.RuneCountInString(lit) + 2
			lx.off = i + 1
			lx.emittedAny = true
			*t = token.Token{Kind: token.STRING, Lit: lit, Pos: pos}
			return
		}
		if c == '\\' || c == '\n' {
			break
		}
		if c < utf8.RuneSelf {
			i++
			continue
		}
		r, w := utf8.DecodeRuneInString(lx.src[i:])
		if r == utf8.RuneError && w == 1 {
			break
		}
		i += w
	}
	lx.scanEscapedString(t, pos)
}

// scanEscapedString scans a string literal rune by rune, decoding escapes.
// An invalid UTF-8 byte becomes U+FFFD.
func (lx *Lexer) scanEscapedString(t *token.Token, pos token.Pos) {
	lx.advance() // opening quote
	var sb strings.Builder
	for {
		r := lx.peek()
		switch r {
		case -1, '\n':
			lx.errorf(t, pos, "unterminated string literal")
			return
		case '"':
			lx.advance()
			lx.emittedAny = true
			*t = token.Token{Kind: token.STRING, Lit: sb.String(), Pos: pos}
			return
		case '\\':
			lx.advance()
			esc := lx.advance()
			switch esc {
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			case 'r':
				sb.WriteByte('\r')
			case '\\':
				sb.WriteByte('\\')
			case '"':
				sb.WriteByte('"')
			case '0':
				sb.WriteByte(0)
			default:
				lx.errorf(t, pos, "unknown escape sequence \\%c", esc)
				return
			}
		default:
			lx.advance()
			sb.WriteRune(r)
		}
	}
}
