// Package parser implements the recursive-descent parser for Tetra.
//
// The original system used Bison; a hand-written parser is simpler to keep
// in lockstep with the hand-written indentation-aware lexer and yields
// better error messages, which matter in an educational language.
package parser

import (
	"fmt"
	"strconv"

	"repro/internal/ast"
	"repro/internal/lexer"
	"repro/internal/token"
	"repro/internal/types"
)

// Error is a syntax error with its source position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: syntax error: %s", e.Pos, e.Msg) }

// Parse scans and parses a Tetra source file into a Program. The parser
// takes its tokens from the lexer one at a time. A lexical error anywhere
// in the file is the one reported, even after a syntax error earlier in
// it: on a syntax error the rest of the file is scanned for one.
func Parse(file, src string) (*ast.Program, error) {
	p := &parser{file: file, lx: lexer.New(file, src)}
	p.tok = p.lx.Next()
	prog, err := p.program()
	if err != nil {
		for p.tok.Kind != token.EOF && p.tok.Kind != token.ILLEGAL {
			p.tok = p.lx.Next()
		}
	}
	if lerr := p.lx.Err(); lerr != nil {
		return nil, lerr
	}
	if err != nil {
		return nil, err
	}
	return prog, nil
}

type parser struct {
	file string
	lx   *lexer.Lexer
	tok  token.Token // the current token
}

// bailout carries a *Error up the recursion; parse methods stay simple and
// the panic is converted back to an error at the top (the Effective Go
// "panic within a package" idiom).
type bailout struct{ err *Error }

func (p *parser) cur() token.Token { return p.tok }

func (p *parser) next() token.Token {
	t := p.tok
	if t.Kind != token.EOF && t.Kind != token.ILLEGAL {
		p.tok = p.lx.Next()
	}
	return t
}

func (p *parser) at(k token.Kind) bool { return p.cur().Kind == k }

func (p *parser) accept(k token.Kind) (token.Token, bool) {
	if p.at(k) {
		return p.next(), true
	}
	return token.Token{}, false
}

func (p *parser) expect(k token.Kind, context string) token.Token {
	if p.at(k) {
		return p.next()
	}
	p.errorf("expected %s %s, found %s", k, context, p.cur())
	panic("unreachable")
}

func (p *parser) errorf(format string, args ...any) {
	p.errorAt(p.cur().Pos, format, args...)
}

func (p *parser) errorAt(pos token.Pos, format string, args ...any) {
	panic(bailout{&Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}})
}

func (p *parser) program() (prog *ast.Program, err error) {
	defer func() {
		if r := recover(); r != nil {
			if b, ok := r.(bailout); ok {
				prog, err = nil, b.err
				return
			}
			panic(r)
		}
	}()
	prog = &ast.Program{File: p.file}
	for !p.at(token.EOF) {
		if !p.at(token.DEF) {
			p.errorf("expected function definition, found %s", p.cur())
		}
		prog.Funcs = append(prog.Funcs, p.funcDecl())
	}
	return prog, nil
}

// funcDecl parses: def name ( params ) [type] : block
func (p *parser) funcDecl() *ast.FuncDecl {
	p.expect(token.DEF, "to begin function")
	nameTok := p.expect(token.IDENT, "as function name")
	f := &ast.FuncDecl{NamePos: nameTok.Pos, Name: nameTok.Lit}
	p.expect(token.LPAREN, "after function name")
	if !p.at(token.RPAREN) {
		for {
			pn := p.expect(token.IDENT, "as parameter name")
			pt := p.typeExpr()
			f.Params = append(f.Params, &ast.Param{NamePos: pn.Pos, Name: pn.Lit, Type: pt})
			if _, ok := p.accept(token.COMMA); !ok {
				break
			}
		}
	}
	p.expect(token.RPAREN, "after parameters")
	if p.atType() {
		f.Result = p.typeExpr()
	}
	f.Body = p.block("function body")
	return f
}

func (p *parser) atType() bool {
	switch p.cur().Kind {
	case token.TINT, token.TREAL, token.TSTRING, token.TBOOL, token.LBRACKET:
		return true
	}
	return false
}

// typeExpr parses: int | real | string | bool | [ type ]
func (p *parser) typeExpr() *types.Type {
	switch t := p.next(); t.Kind {
	case token.TINT:
		return types.IntType
	case token.TREAL:
		return types.RealType
	case token.TSTRING:
		return types.StringType
	case token.TBOOL:
		return types.BoolType
	case token.LBRACKET:
		elem := p.typeExpr()
		p.expect(token.RBRACKET, "to close array type")
		return types.ArrayOf(elem)
	default:
		p.errorf("expected a type, found %s", t)
		panic("unreachable")
	}
}

// block parses: ':' NEWLINE INDENT stmt+ DEDENT
func (p *parser) block(context string) *ast.Block {
	colon := p.expect(token.COLON, "to begin "+context)
	b := &ast.Block{Colon: colon.Pos}
	p.expect(token.NEWLINE, "after ':'")
	p.expect(token.INDENT, "to begin "+context)
	for !p.at(token.DEDENT) && !p.at(token.EOF) {
		b.Stmts = append(b.Stmts, p.stmt())
	}
	p.expect(token.DEDENT, "to end "+context)
	return b
}

func (p *parser) stmt() ast.Stmt {
	switch p.cur().Kind {
	case token.IF:
		return p.ifStmt(token.IF)
	case token.WHILE:
		t := p.next()
		cond := p.expr()
		return &ast.WhileStmt{WhilePos: t.Pos, Cond: cond, Body: p.block("while body")}
	case token.FOR:
		return p.forStmt(p.next().Pos, false)
	case token.PARALLEL:
		t := p.next()
		if p.at(token.FOR) {
			p.next()
			return p.forStmt(t.Pos, true)
		}
		return &ast.ParallelStmt{ParPos: t.Pos, Body: p.block("parallel block")}
	case token.BACKGROUND:
		t := p.next()
		return &ast.BackgroundStmt{BgPos: t.Pos, Body: p.block("background block")}
	case token.LOCK:
		t := p.next()
		name := p.expect(token.IDENT, "as lock name")
		return &ast.LockStmt{LockPos: t.Pos, Name: name.Lit, Body: p.block("lock block")}
	case token.RETURN:
		t := p.next()
		var val ast.Expr
		if !p.at(token.NEWLINE) {
			val = p.expr()
		}
		p.expect(token.NEWLINE, "after return")
		return &ast.ReturnStmt{RetPos: t.Pos, Value: val}
	case token.BREAK:
		t := p.next()
		p.expect(token.NEWLINE, "after break")
		return &ast.BreakStmt{BrPos: t.Pos}
	case token.CONTINUE:
		t := p.next()
		p.expect(token.NEWLINE, "after continue")
		return &ast.ContinueStmt{ContPos: t.Pos}
	case token.PASS:
		t := p.next()
		p.expect(token.NEWLINE, "after pass")
		return &ast.PassStmt{PassPos: t.Pos}
	case token.DEF:
		p.errorf("nested function definitions are not supported")
	}
	return p.simpleStmt()
}

// ifStmt parses an if/elif/else chain; elifs desugar to nested IfStmts.
func (p *parser) ifStmt(kw token.Kind) ast.Stmt {
	t := p.expect(kw, "")
	cond := p.expr()
	s := &ast.IfStmt{IfPos: t.Pos, Cond: cond, Then: p.block("if body")}
	switch p.cur().Kind {
	case token.ELIF:
		nested := p.ifStmt(token.ELIF)
		s.Else = &ast.Block{Colon: nested.Pos(), Stmts: []ast.Stmt{nested}}
	case token.ELSE:
		p.next()
		s.Else = p.block("else body")
	}
	return s
}

func (p *parser) forStmt(pos token.Pos, parallel bool) ast.Stmt {
	v := p.expect(token.IDENT, "as loop variable")
	p.expect(token.IN, "after loop variable")
	seq := p.expr()
	body := p.block("for body")
	ident := &ast.Ident{NamePos: v.Pos, Name: v.Lit, Slot: -1}
	if parallel {
		return &ast.ParallelForStmt{ParPos: pos, Var: ident, Seq: seq, Body: body}
	}
	return &ast.ForStmt{ForPos: pos, Var: ident, Seq: seq, Body: body}
}

// simpleStmt parses an expression statement or an assignment, terminated by
// NEWLINE.
func (p *parser) simpleStmt() ast.Stmt {
	lhs := p.expr()
	switch p.cur().Kind {
	case token.ASSIGN, token.PLUSASSIGN, token.MINUSASSIGN, token.STARASSIGN,
		token.SLASHASSIGN, token.PERCENTASSIGN:
		op := p.next()
		switch lhs.(type) {
		case *ast.Ident, *ast.IndexExpr:
		default:
			panic(bailout{&Error{Pos: lhs.Pos(), Msg: "invalid assignment target"}})
		}
		rhs := p.expr()
		p.expect(token.NEWLINE, "after assignment")
		return &ast.AssignStmt{Target: lhs, OpPos: op.Pos, Op: op.Kind, Value: rhs}
	}
	p.expect(token.NEWLINE, "after expression")
	return &ast.ExprStmt{X: lhs}
}

// Expression grammar, loosest binding first:
//
//	expr   := and {"or" and}
//	and    := not {"and" not}
//	not    := "not" not | cmp
//	cmp    := arith [relop arith]
//	arith  := term {("+"|"-") term}
//	term   := unary {("*"|"/"|"%") unary}
//	unary  := "-" unary | postfix
//	postfix:= primary {"(" args ")" | "[" expr "]"}
func (p *parser) expr() ast.Expr { return p.orExpr() }

func (p *parser) orExpr() ast.Expr {
	x := p.andExpr()
	for p.at(token.OR) {
		op := p.next()
		y := p.andExpr()
		x = &ast.BinaryExpr{Op: token.OR, OpPos: op.Pos, X: x, Y: y}
	}
	return x
}

func (p *parser) andExpr() ast.Expr {
	x := p.notExpr()
	for p.at(token.AND) {
		op := p.next()
		y := p.notExpr()
		x = &ast.BinaryExpr{Op: token.AND, OpPos: op.Pos, X: x, Y: y}
	}
	return x
}

func (p *parser) notExpr() ast.Expr {
	if p.at(token.NOT) {
		op := p.next()
		x := p.notExpr()
		return &ast.UnaryExpr{OpPos: op.Pos, Op: token.NOT, X: x}
	}
	return p.comparison()
}

func (p *parser) comparison() ast.Expr {
	x := p.arith()
	switch p.cur().Kind {
	case token.EQ, token.NE, token.LT, token.LE, token.GT, token.GE:
		op := p.next()
		y := p.arith()
		switch p.cur().Kind {
		case token.EQ, token.NE, token.LT, token.LE, token.GT, token.GE:
			// Without this check the second relop falls through to an
			// unhelpful "expected X, found >" somewhere up the stack.
			p.errorf("Tetra does not support chained comparisons like a %s b %s c; use \"and\" to combine two comparisons", op.Kind, p.cur().Kind)
		}
		return &ast.BinaryExpr{Op: op.Kind, OpPos: op.Pos, X: x, Y: y}
	}
	return x
}

func (p *parser) arith() ast.Expr {
	x := p.term()
	for p.at(token.PLUS) || p.at(token.MINUS) {
		op := p.next()
		y := p.term()
		x = &ast.BinaryExpr{Op: op.Kind, OpPos: op.Pos, X: x, Y: y}
	}
	return x
}

func (p *parser) term() ast.Expr {
	x := p.unary()
	for p.at(token.STAR) || p.at(token.SLASH) || p.at(token.PERCENT) {
		op := p.next()
		y := p.unary()
		x = &ast.BinaryExpr{Op: op.Kind, OpPos: op.Pos, X: x, Y: y}
	}
	return x
}

func (p *parser) unary() ast.Expr {
	if p.at(token.MINUS) {
		op := p.next()
		x := p.unary()
		return &ast.UnaryExpr{OpPos: op.Pos, Op: token.MINUS, X: x}
	}
	return p.postfix()
}

func (p *parser) postfix() ast.Expr {
	x := p.primary()
	for {
		switch p.cur().Kind {
		case token.LPAREN:
			id, ok := x.(*ast.Ident)
			if !ok {
				p.errorf("only named functions can be called")
			}
			lp := p.next()
			call := &ast.CallExpr{Fun: id, Lparen: lp.Pos, FuncIndex: -1, Builtin: -1}
			if !p.at(token.RPAREN) {
				for {
					call.Args = append(call.Args, p.expr())
					if _, ok := p.accept(token.COMMA); !ok {
						break
					}
				}
			}
			p.expect(token.RPAREN, "to close call")
			x = call
		case token.LBRACKET:
			lb := p.next()
			idx := p.expr()
			if p.at(token.COLON) {
				p.errorf("Tetra does not support slice expressions; index one element at a time")
			}
			p.expect(token.RBRACKET, "to close index")
			x = &ast.IndexExpr{X: x, Lbrack: lb.Pos, Index: idx}
		default:
			return x
		}
	}
}

func (p *parser) primary() ast.Expr {
	t := p.cur()
	switch t.Kind {
	case token.INT:
		p.next()
		v, err := parseInt(t.Lit)
		if err != nil {
			p.errorAt(t.Pos, "invalid integer literal %q: %v", t.Lit, err)
		}
		return &ast.IntLit{LitPos: t.Pos, Value: v}
	case token.REAL:
		p.next()
		v, err := parseReal(t.Lit)
		if err != nil {
			p.errorAt(t.Pos, "invalid real literal %q: %v", t.Lit, err)
		}
		return &ast.RealLit{LitPos: t.Pos, Value: v, Text: t.Lit}
	case token.STRING:
		p.next()
		return &ast.StringLit{LitPos: t.Pos, Value: t.Lit}
	case token.TRUE:
		p.next()
		return &ast.BoolLit{LitPos: t.Pos, Value: true}
	case token.FALSE:
		p.next()
		return &ast.BoolLit{LitPos: t.Pos, Value: false}
	case token.IDENT:
		p.next()
		return &ast.Ident{NamePos: t.Pos, Name: t.Lit, Slot: -1}
	case token.LPAREN:
		p.next()
		x := p.expr()
		p.expect(token.RPAREN, "to close parenthesized expression")
		return x
	case token.LBRACKET:
		return p.arrayOrRange()
	}
	p.errorf("expected an expression, found %s", t)
	panic("unreachable")
}

// arrayOrRange parses [e1, e2, ...] or [lo .. hi].
func (p *parser) arrayOrRange() ast.Expr {
	lb := p.expect(token.LBRACKET, "")
	if p.at(token.RBRACKET) {
		p.next()
		return &ast.ArrayLit{Lbrack: lb.Pos}
	}
	first := p.expr()
	if p.at(token.DOTDOT) {
		p.next()
		hi := p.expr()
		p.expect(token.RBRACKET, "to close range literal")
		return &ast.RangeLit{Lbrack: lb.Pos, Lo: first, Hi: hi}
	}
	lit := &ast.ArrayLit{Lbrack: lb.Pos, Elems: []ast.Expr{first}}
	for {
		if _, ok := p.accept(token.COMMA); !ok {
			break
		}
		lit.Elems = append(lit.Elems, p.expr())
	}
	p.expect(token.RBRACKET, "to close array literal")
	return lit
}

// parseInt converts an INT literal, which is ASCII digits.
func parseInt(s string) (int64, error) {
	var v int64
	for i := 0; i < len(s); i++ {
		d := int64(s[i] - '0')
		if v > (1<<63-1-d)/10 {
			return 0, fmt.Errorf("overflows int")
		}
		v = v*10 + d
	}
	return v, nil
}

// parseReal converts a REAL literal: digits with a fraction, an exponent
// or both.
func parseReal(s string) (float64, error) {
	return strconv.ParseFloat(s, 64)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
