package ast

import (
	"strings"
	"testing"

	"repro/internal/token"
	"repro/internal/types"
)

func TestPrintExprLiterals(t *testing.T) {
	cases := []struct {
		e    Expr
		want string
	}{
		{&IntLit{Value: 42}, "42"},
		{&IntLit{Value: -7}, "-7"},
		{&RealLit{Value: 2.5}, "2.5"},
		{&RealLit{Value: 3, Text: "3.0"}, "3.0"},
		{&RealLit{Value: 3}, "3.0"}, // no source text: synthesize the .0
		{&StringLit{Value: "a\nb\"c"}, `"a\nb\"c"`},
		{&BoolLit{Value: true}, "true"},
		{&BoolLit{Value: false}, "false"},
		{&Ident{Name: "x"}, "x"},
	}
	for _, c := range cases {
		if got := PrintStmt(&ExprStmt{X: c.e}, 0); got != c.want {
			t.Errorf("PrintStmt = %q, want %q", got, c.want)
		}
	}
}

func TestPrintExprComposite(t *testing.T) {
	x := &Ident{Name: "x"}
	y := &Ident{Name: "y"}
	cases := []struct {
		e    Expr
		want string
	}{
		{&BinaryExpr{Op: token.PLUS, X: x, Y: y}, "x + y"},
		{&BinaryExpr{Op: token.STAR, X: &BinaryExpr{Op: token.PLUS, X: x, Y: y}, Y: y}, "(x + y) * y"},
		{&BinaryExpr{Op: token.PLUS, X: x, Y: &BinaryExpr{Op: token.STAR, X: x, Y: y}}, "x + x * y"},
		{&UnaryExpr{Op: token.MINUS, X: x}, "-x"},
		{&UnaryExpr{Op: token.NOT, X: &BoolLit{Value: true}}, "not true"},
		{&IndexExpr{X: x, Index: &IntLit{Value: 0}}, "x[0]"},
		{&CallExpr{Fun: &Ident{Name: "f"}, Args: []Expr{x, y}}, "f(x, y)"},
		{&CallExpr{Fun: &Ident{Name: "f"}}, "f()"},
		{&ArrayLit{Elems: []Expr{&IntLit{Value: 1}, &IntLit{Value: 2}}}, "[1, 2]"},
		{&ArrayLit{}, "[]"},
		{&RangeLit{Lo: &IntLit{Value: 1}, Hi: &IntLit{Value: 9}}, "[1 .. 9]"},
		// Non-associative comparison operands keep their parens.
		{&BinaryExpr{Op: token.EQ, X: &BinaryExpr{Op: token.LT, X: x, Y: y}, Y: &BoolLit{Value: true}}, "(x < y) == true"},
	}
	for _, c := range cases {
		if got := PrintStmt(&ExprStmt{X: c.e}, 0); got != c.want {
			t.Errorf("PrintStmt = %q, want %q", got, c.want)
		}
	}
}

func TestPrintStmtDepth(t *testing.T) {
	s := &AssignStmt{Target: &Ident{Name: "x"}, Op: token.ASSIGN, Value: &IntLit{Value: 1}}
	if got := PrintStmt(s, 0); got != "x = 1" {
		t.Errorf("depth 0 = %q", got)
	}
	if got := PrintStmt(s, 2); got != "        x = 1" {
		t.Errorf("depth 2 = %q", got)
	}
}

func TestPrintEmptyBlockEmitsPass(t *testing.T) {
	f := &FuncDecl{Name: "main", Body: &Block{}}
	p := &Program{Funcs: []*FuncDecl{f}}
	out := Print(p)
	if !strings.Contains(out, "    pass\n") {
		t.Errorf("empty body printed without pass:\n%s", out)
	}
}

func TestPrintFunctionSignatures(t *testing.T) {
	f := &FuncDecl{
		Name: "f",
		Params: []*Param{
			{Name: "a", Type: types.IntType},
			{Name: "b", Type: types.ArrayOf(types.RealType)},
		},
		Result: types.StringType,
		Body:   &Block{Stmts: []Stmt{&ReturnStmt{Value: &StringLit{Value: "x"}}}},
	}
	out := Print(&Program{Funcs: []*FuncDecl{f}})
	if !strings.Contains(out, "def f(a int, b [real]) string:") {
		t.Errorf("signature wrong:\n%s", out)
	}
}

func TestProgramLookup(t *testing.T) {
	f1 := &FuncDecl{Name: "a"}
	f2 := &FuncDecl{Name: "b"}
	p := &Program{Funcs: []*FuncDecl{f1, f2}}
	// Without FuncIndex: linear scan path.
	if p.Lookup("b") != f2 || p.Lookup("zz") != nil {
		t.Error("Lookup without index wrong")
	}
	p.FuncIndex = map[string]int{"a": 0, "b": 1}
	if p.Lookup("a") != f1 || p.Lookup("zz") != nil {
		t.Error("Lookup with index wrong")
	}
}

func TestNodePositions(t *testing.T) {
	pos := token.Pos{File: "f", Line: 3, Col: 4}
	nodes := []Node{
		&IntLit{LitPos: pos},
		&RealLit{LitPos: pos},
		&StringLit{LitPos: pos},
		&BoolLit{LitPos: pos},
		&Ident{NamePos: pos},
		&ArrayLit{Lbrack: pos},
		&RangeLit{Lbrack: pos},
		&UnaryExpr{OpPos: pos},
		&IfStmt{IfPos: pos},
		&WhileStmt{WhilePos: pos},
		&ForStmt{ForPos: pos},
		&ParallelForStmt{ParPos: pos},
		&ParallelStmt{ParPos: pos},
		&BackgroundStmt{BgPos: pos},
		&LockStmt{LockPos: pos},
		&ReturnStmt{RetPos: pos},
		&BreakStmt{BrPos: pos},
		&ContinueStmt{ContPos: pos},
		&PassStmt{PassPos: pos},
		&FuncDecl{NamePos: pos},
		&Param{NamePos: pos},
		&Block{Colon: pos},
	}
	for _, n := range nodes {
		if n.Pos() != pos {
			t.Errorf("%T.Pos() = %v", n, n.Pos())
		}
	}
	// Derived positions.
	id := &Ident{NamePos: pos}
	if (&ExprStmt{X: id}).Pos() != pos || (&AssignStmt{Target: id}).Pos() != pos {
		t.Error("derived stmt positions wrong")
	}
	if (&BinaryExpr{X: id}).Pos() != pos || (&IndexExpr{X: id}).Pos() != pos {
		t.Error("derived expr positions wrong")
	}
	if (&CallExpr{Fun: id}).Pos() != pos {
		t.Error("call position wrong")
	}
	empty := &Program{File: "f"}
	if empty.Pos().File != "f" {
		t.Error("empty program position wrong")
	}
}

func TestTypedSetGet(t *testing.T) {
	e := &IntLit{Value: 1}
	if e.Type() != nil {
		t.Error("fresh node has a type")
	}
	e.SetType(types.IntType)
	if !types.Equal(e.Type(), types.IntType) {
		t.Error("SetType/Type round trip failed")
	}
}
