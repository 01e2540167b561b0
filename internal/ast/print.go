package ast

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/token"
)

// Print renders a Program back into Tetra surface syntax. The output parses
// to a structurally identical tree (modulo positions), a property exercised
// by the parser's round-trip tests.
func Print(p *Program) string {
	var pr printer
	for i, f := range p.Funcs {
		if i > 0 {
			pr.line("")
		}
		pr.funcDecl(f)
	}
	return pr.sb.String()
}

// PrintStmt renders a single statement at the given indent depth. It is
// exported for debugger displays.
func PrintStmt(s Stmt, depth int) string {
	var pr printer
	pr.depth = depth
	pr.stmt(s)
	return strings.TrimRight(pr.sb.String(), "\n")
}

type printer struct {
	sb    strings.Builder
	depth int
}

func (pr *printer) line(s string) {
	for i := 0; i < pr.depth; i++ {
		pr.sb.WriteString("    ")
	}
	pr.sb.WriteString(s)
	pr.sb.WriteByte('\n')
}

func (pr *printer) funcDecl(f *FuncDecl) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "def %s(", f.Name)
	for i, p := range f.Params {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s %s", p.Name, p.Type)
	}
	sb.WriteString(")")
	if f.Result != nil {
		sb.WriteString(" " + f.Result.String())
	}
	sb.WriteString(":")
	pr.line(sb.String())
	pr.block(f.Body)
}

func (pr *printer) block(b *Block) {
	pr.depth++
	if len(b.Stmts) == 0 {
		pr.line("pass")
	}
	for _, s := range b.Stmts {
		pr.stmt(s)
	}
	pr.depth--
}

func (pr *printer) stmt(s Stmt) {
	switch s := s.(type) {
	case *ExprStmt:
		pr.line(pr.expr(s.X))
	case *AssignStmt:
		pr.line(fmt.Sprintf("%s %s %s", pr.expr(s.Target), s.Op, pr.expr(s.Value)))
	case *IfStmt:
		pr.ifChain(s, "if")
	case *WhileStmt:
		pr.line("while " + pr.expr(s.Cond) + ":")
		pr.block(s.Body)
	case *ForStmt:
		pr.line(fmt.Sprintf("for %s in %s:", s.Var.Name, pr.expr(s.Seq)))
		pr.block(s.Body)
	case *ParallelForStmt:
		pr.line(fmt.Sprintf("parallel for %s in %s:", s.Var.Name, pr.expr(s.Seq)))
		pr.block(s.Body)
	case *ParallelStmt:
		pr.line("parallel:")
		pr.block(s.Body)
	case *BackgroundStmt:
		pr.line("background:")
		pr.block(s.Body)
	case *LockStmt:
		pr.line("lock " + s.Name + ":")
		pr.block(s.Body)
	case *ReturnStmt:
		if s.Value != nil {
			pr.line("return " + pr.expr(s.Value))
		} else {
			pr.line("return")
		}
	case *BreakStmt:
		pr.line("break")
	case *ContinueStmt:
		pr.line("continue")
	case *PassStmt:
		pr.line("pass")
	default:
		pr.line(fmt.Sprintf("<unknown stmt %T>", s))
	}
}

// ifChain prints if/elif/else chains, re-sugaring an else block that
// contains exactly one IfStmt into elif.
func (pr *printer) ifChain(s *IfStmt, kw string) {
	pr.line(kw + " " + pr.expr(s.Cond) + ":")
	pr.block(s.Then)
	if s.Else == nil {
		return
	}
	if len(s.Else.Stmts) == 1 {
		if nested, ok := s.Else.Stmts[0].(*IfStmt); ok {
			pr.ifChain(nested, "elif")
			return
		}
	}
	pr.line("else:")
	pr.block(s.Else)
}

// Operator precedence levels, loosest to tightest. Used to parenthesize
// only where required.
func prec(op token.Kind) int {
	switch op {
	case token.OR:
		return 1
	case token.AND:
		return 2
	case token.EQ, token.NE, token.LT, token.LE, token.GT, token.GE:
		return 4
	case token.PLUS, token.MINUS:
		return 5
	case token.STAR, token.SLASH, token.PERCENT:
		return 6
	default:
		return 9
	}
}

func (pr *printer) expr(e Expr) string {
	return pr.exprPrec(e, 0)
}

func (pr *printer) exprPrec(e Expr, outer int) string {
	switch e := e.(type) {
	case *IntLit:
		return strconv.FormatInt(e.Value, 10)
	case *RealLit:
		if e.Text != "" {
			return e.Text
		}
		s := strconv.FormatFloat(e.Value, 'g', -1, 64)
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		return s
	case *StringLit:
		return quote(e.Value)
	case *BoolLit:
		if e.Value {
			return "true"
		}
		return "false"
	case *Ident:
		return e.Name
	case *ArrayLit:
		parts := make([]string, len(e.Elems))
		for i, el := range e.Elems {
			parts[i] = pr.expr(el)
		}
		return "[" + strings.Join(parts, ", ") + "]"
	case *RangeLit:
		return "[" + pr.expr(e.Lo) + " .. " + pr.expr(e.Hi) + "]"
	case *UnaryExpr:
		const unaryPrec = 7
		inner := pr.exprPrec(e.X, unaryPrec)
		var s string
		if e.Op == token.NOT {
			s = "not " + inner
			// 'not' binds looser than comparison in Tetra (like Python), so
			// treat it at level 3.
			if outer > 3 {
				s = "(" + s + ")"
			}
			return s
		}
		s = "-" + inner
		if outer > unaryPrec {
			s = "(" + s + ")"
		}
		return s
	case *BinaryExpr:
		p := prec(e.Op)
		// Left-associative operators let the left operand share their
		// level; comparisons are non-associative in the grammar, so both
		// operands must bind tighter.
		leftP := p
		switch e.Op {
		case token.EQ, token.NE, token.LT, token.LE, token.GT, token.GE:
			leftP = p + 1
		}
		s := pr.exprPrec(e.X, leftP) + " " + e.Op.String() + " " + pr.exprPrec(e.Y, p+1)
		if p < outer {
			s = "(" + s + ")"
		}
		return s
	case *IndexExpr:
		return pr.exprPrec(e.X, 8) + "[" + pr.expr(e.Index) + "]"
	case *CallExpr:
		parts := make([]string, len(e.Args))
		for i, a := range e.Args {
			parts[i] = pr.expr(a)
		}
		return e.Fun.Name + "(" + strings.Join(parts, ", ") + ")"
	default:
		return fmt.Sprintf("<unknown expr %T>", e)
	}
}

func quote(s string) string {
	var sb strings.Builder
	sb.WriteByte('"')
	for _, r := range s {
		switch r {
		case '\n':
			sb.WriteString(`\n`)
		case '\t':
			sb.WriteString(`\t`)
		case '\r':
			sb.WriteString(`\r`)
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case 0:
			sb.WriteString(`\0`)
		default:
			sb.WriteRune(r)
		}
	}
	sb.WriteByte('"')
	return sb.String()
}
