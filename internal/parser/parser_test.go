package parser

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/token"
	"repro/internal/types"
)

// rt parses src and returns the pretty-printed form, failing on error.
func rt(t *testing.T, src string) string {
	t.Helper()
	prog, err := Parse("test.ttr", src)
	if err != nil {
		t.Fatalf("parse error: %v\nsource:\n%s", err, src)
	}
	return ast.Print(prog)
}

// TestRoundTripCorpus checks parse→print→parse→print is a fixpoint for a
// corpus covering every construct.
func TestRoundTripCorpus(t *testing.T) {
	corpus := []string{
		"def main():\n    pass\n",
		"def f(x int) int:\n    return x * 2\n",
		"def f(x int, y real, s string, b bool) real:\n    return y\n",
		"def f(a [int], m [[real]]) [string]:\n    return [\"x\"]\n",
		"def main():\n    x = 1\n    y = 2.5\n    s = \"hi\"\n    b = true\n    c = false\n",
		"def main():\n    x = 1 + 2 * 3 - 4 / 5 % 6\n",
		"def main():\n    x = (1 + 2) * 3\n",
		"def main():\n    b = 1 < 2 and 3 >= 4 or not (5 == 6)\n",
		"def main():\n    x = -5\n    y = - -5\n",
		"def main():\n    a = [1, 2, 3]\n    r = [1 .. 100]\n    n = a[0] + r[99]\n",
		"def main():\n    a = [1, 2]\n    a[0] = 10\n    a[1] += 5\n",
		"def main():\n    x = 1\n    x += 1\n    x -= 2\n    x *= 3\n    x /= 4\n    x %= 5\n",
		"def main():\n    if true:\n        pass\n",
		"def main():\n    if 1 < 2:\n        x = 1\n    else:\n        x = 2\n",
		"def main():\n    if 1 < 2:\n        x = 1\n    elif 2 < 3:\n        x = 2\n    elif 3 < 4:\n        x = 3\n    else:\n        x = 4\n",
		"def main():\n    while true:\n        break\n",
		"def main():\n    i = 0\n    while i < 10:\n        i += 1\n        continue\n",
		"def main():\n    for x in [1 .. 5]:\n        print(x)\n",
		"def main():\n    parallel for x in [1 .. 5]:\n        print(x)\n",
		"def main():\n    parallel:\n        print(1)\n        print(2)\n",
		"def main():\n    background:\n        print(1)\n",
		"def main():\n    lock m:\n        print(1)\n",
		"def f() int:\n    return 1\n\ndef main():\n    print(f())\n",
		"def f(x int) int:\n    return x\n\ndef main():\n    print(f(1), f(2))\n",
		"def main():\n    s = \"a\" + \"b\"\n    print(s)\n",
		"def main():\n    print()\n",
		"def main():\n    return\n",
		"def main():\n    x = len([1, 2]) / 2\n",
		"def main():\n    m = [[1, 2], [3, 4]]\n    print(m[1][0])\n",
	}
	for _, src := range corpus {
		p1 := rt(t, src)
		p2 := rt(t, p1)
		if p1 != p2 {
			t.Errorf("round trip not a fixpoint.\nfirst:\n%s\nsecond:\n%s", p1, p2)
		}
	}
}

func TestParseFigure1(t *testing.T) {
	src := `# a simple factorial function
def fact(x int) int:
    if x == 0:
        return 1
    else:
        return x * fact(x - 1)

# a main function which handles I/O
def main():
    print("enter n: ")
    n = read_int()
    print(n, "! = ", fact(n))
`
	prog, err := Parse("fig1.ttr", src)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Funcs) != 2 {
		t.Fatalf("got %d functions, want 2", len(prog.Funcs))
	}
	fact := prog.Funcs[0]
	if fact.Name != "fact" || len(fact.Params) != 1 || fact.Params[0].Name != "x" {
		t.Errorf("fact signature wrong: %+v", fact)
	}
	if !types.Equal(fact.Result, types.IntType) || !types.Equal(fact.Params[0].Type, types.IntType) {
		t.Errorf("fact types wrong")
	}
	ifStmt, ok := fact.Body.Stmts[0].(*ast.IfStmt)
	if !ok {
		t.Fatalf("fact body[0] is %T", fact.Body.Stmts[0])
	}
	if _, ok := ifStmt.Then.Stmts[0].(*ast.ReturnStmt); !ok {
		t.Errorf("then branch is %T", ifStmt.Then.Stmts[0])
	}
}

func TestParseParallelConstructs(t *testing.T) {
	src := `def main():
    parallel:
        a = 1
        b = 2
    background:
        c = 3
    parallel for x in [1 .. 3]:
        print(x)
    lock counter:
        d = 4
`
	prog, err := Parse("p.ttr", src)
	if err != nil {
		t.Fatal(err)
	}
	body := prog.Funcs[0].Body.Stmts
	if len(body) != 4 {
		t.Fatalf("got %d statements", len(body))
	}
	par, ok := body[0].(*ast.ParallelStmt)
	if !ok || len(par.Body.Stmts) != 2 {
		t.Errorf("parallel block wrong: %T", body[0])
	}
	if _, ok := body[1].(*ast.BackgroundStmt); !ok {
		t.Errorf("background block wrong: %T", body[1])
	}
	pf, ok := body[2].(*ast.ParallelForStmt)
	if !ok || pf.Var.Name != "x" {
		t.Errorf("parallel for wrong: %T", body[2])
	}
	lk, ok := body[3].(*ast.LockStmt)
	if !ok || lk.Name != "counter" {
		t.Errorf("lock block wrong: %T", body[3])
	}
}

func TestElifDesugaring(t *testing.T) {
	src := "def main():\n    if a:\n        pass\n    elif b:\n        pass\n    else:\n        pass\n"
	prog, err := Parse("t", src)
	if err != nil {
		t.Fatal(err)
	}
	outer := prog.Funcs[0].Body.Stmts[0].(*ast.IfStmt)
	if outer.Else == nil || len(outer.Else.Stmts) != 1 {
		t.Fatal("elif not desugared into else")
	}
	inner, ok := outer.Else.Stmts[0].(*ast.IfStmt)
	if !ok {
		t.Fatalf("else holds %T", outer.Else.Stmts[0])
	}
	if inner.Else == nil {
		t.Error("final else missing")
	}
}

func TestPrecedence(t *testing.T) {
	cases := []struct{ src, want string }{
		{"x = 1 + 2 * 3", "x = 1 + 2 * 3"},
		{"x = (1 + 2) * 3", "x = (1 + 2) * 3"},
		{"x = 1 - 2 - 3", "x = 1 - 2 - 3"},
		{"x = 1 - (2 - 3)", "x = 1 - (2 - 3)"},
		{"b = not p and q", "b = not p and q"},
		{"b = not (p and q)", "b = not (p and q)"},
		{"b = (a < b) == true", "b = (a < b) == true"}, // comparison is non-associative; parens required and preserved
		{"x = -a * b", "x = -a * b"},
		{"x = -(a * b)", "x = -(a * b)"},
		{"x = a[i] + f(j)", "x = a[i] + f(j)"},
	}
	for _, c := range cases {
		src := "def main():\n    " + c.src + "\n"
		got := rt(t, src)
		wantLine := "    " + c.want
		if !strings.Contains(got, wantLine+"\n") {
			t.Errorf("%q printed as:\n%s\nwant line %q", c.src, got, wantLine)
		}
	}
}

func TestComparisonNotChained(t *testing.T) {
	// a < b < c must be a syntax error (comparison is non-associative),
	// and the error must say so rather than complain about the third
	// operand.
	_, err := Parse("t", "def main():\n    x = 10 > 2 > 1\n")
	if err == nil {
		t.Fatal("chained comparison accepted")
	}
	if !strings.Contains(err.Error(), "chained comparisons") {
		t.Errorf("error %q does not mention chained comparisons", err)
	}
	perr, ok := err.(*Error)
	if !ok {
		t.Fatalf("error type %T: %v", err, err)
	}
	// Position should point at the second relop, not the end of line.
	if perr.Pos.Line != 2 || perr.Pos.Col < 14 || perr.Pos.Col > 16 {
		t.Errorf("error position = %v, want line 2 near the second >", perr.Pos)
	}
}

func TestSliceExpressionDiagnostic(t *testing.T) {
	// Python users will try a[0:2]; name the missing feature instead of a
	// generic "expected ]".
	_, err := Parse("t", "def main():\n    a = [1, 2, 3]\n    print(a[0:2])\n")
	if err == nil {
		t.Fatal("slice expression accepted")
	}
	if !strings.Contains(err.Error(), "slice expressions") {
		t.Errorf("error %q does not mention slice expressions", err)
	}
	perr, ok := err.(*Error)
	if !ok {
		t.Fatalf("error type %T: %v", err, err)
	}
	if perr.Pos.Line != 3 {
		t.Errorf("error position = %v, want line 3", perr.Pos)
	}
}

func TestSyntaxErrors(t *testing.T) {
	cases := []struct {
		src    string
		substr string
	}{
		{"x = 1\n", "expected function definition"},
		{"def main():\nx = 1\n", "expected INDENT"},
		{"def main(:\n    pass\n", "parameter name"},
		{"def main(x):\n    pass\n", "expected a type"},
		{"def main()\n    pass\n", "expected :"},
		{"def main():\n    x = \n", "expected an expression"},
		{"def main():\n    1 + 2 = x\n", "invalid assignment target"},
		{"def main():\n    f(1(2)\n", "only named functions can be called"},
		{"def main():\n    def g():\n        pass\n", "nested function"},
		{"def main():\n    return 1 2\n", "expected NEWLINE"},
		{"def main():\n    x = [1, 2\n", "to close array literal"},
		{"def main():\n    lock :\n        pass\n", "lock name"},
		{"def main():\n    a = [1, 2]\n    x = a[0:1]\n", "slice expressions"},
		{"def main():\n    x = 1 < 2 <= 3\n", "chained comparisons"},
		{"def main():\n    x = (1 + 2\n", "expected )"},
	}
	for _, c := range cases {
		_, err := Parse("t", c.src)
		if err == nil {
			t.Errorf("parse %q: expected error containing %q", c.src, c.substr)
			continue
		}
		if !strings.Contains(err.Error(), c.substr) {
			t.Errorf("parse %q: error %q does not contain %q", c.src, err, c.substr)
		}
	}
}

func TestErrorPositions(t *testing.T) {
	_, err := Parse("file.ttr", "def main():\n    x = [1, 2\n")
	if err == nil {
		t.Fatal("expected error")
	}
	perr, ok := err.(*Error)
	if !ok {
		t.Fatalf("error type %T: %v", err, err)
	}
	if perr.Pos.File != "file.ttr" || perr.Pos.Line < 2 {
		t.Errorf("error position = %v", perr.Pos)
	}
}

func TestIntLiteralOverflow(t *testing.T) {
	_, err := Parse("t", "def main():\n    x = 99999999999999999999\n")
	if err == nil {
		t.Error("overflowing int literal accepted")
	}
}

func TestEmptyProgram(t *testing.T) {
	prog, err := Parse("t", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Funcs) != 0 {
		t.Errorf("got %d funcs", len(prog.Funcs))
	}
	prog, err = Parse("t", "# only a comment\n\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Funcs) != 0 {
		t.Errorf("comment-only: got %d funcs", len(prog.Funcs))
	}
}

// --- randomized round-trip property ---

// progGen builds random but well-formed Tetra programs directly as ASTs,
// prints them, and checks parse(print(p)) prints identically. This
// exercises printer/parser agreement over a much larger space than the
// fixed corpus.
type progGen struct {
	r     *rand.Rand
	depth int
}

func (g *progGen) expr() ast.Expr {
	g.depth++
	defer func() { g.depth-- }()
	if g.depth > 4 {
		return g.leaf()
	}
	switch g.r.Intn(8) {
	case 0, 1, 2:
		return g.leaf()
	case 3:
		ops := []token.Kind{token.PLUS, token.MINUS, token.STAR, token.SLASH, token.PERCENT}
		return &ast.BinaryExpr{Op: ops[g.r.Intn(len(ops))], X: g.expr(), Y: g.expr()}
	case 4:
		ops := []token.Kind{token.EQ, token.NE, token.LT, token.LE, token.GT, token.GE}
		return &ast.BinaryExpr{Op: ops[g.r.Intn(len(ops))], X: g.leaf(), Y: g.leaf()}
	case 5:
		return &ast.UnaryExpr{Op: token.MINUS, X: g.expr()}
	case 6:
		n := g.r.Intn(3) + 1
		elems := make([]ast.Expr, n)
		for i := range elems {
			elems[i] = g.leaf()
		}
		return &ast.ArrayLit{Elems: elems}
	default:
		return &ast.IndexExpr{X: &ast.Ident{Name: "a"}, Index: g.leaf()}
	}
}

func (g *progGen) leaf() ast.Expr {
	switch g.r.Intn(5) {
	case 0:
		return &ast.IntLit{Value: int64(g.r.Intn(1000))}
	case 1:
		return &ast.RealLit{Value: 1.5, Text: "1.5"}
	case 2:
		return &ast.StringLit{Value: "s"}
	case 3:
		return &ast.BoolLit{Value: g.r.Intn(2) == 0}
	default:
		return &ast.Ident{Name: string(rune('a' + g.r.Intn(4)))}
	}
}

func (g *progGen) boolExpr() ast.Expr {
	ops := []token.Kind{token.EQ, token.NE, token.LT, token.LE, token.GT, token.GE}
	cmp := func() ast.Expr {
		return &ast.BinaryExpr{Op: ops[g.r.Intn(len(ops))], X: g.leaf(), Y: g.leaf()}
	}
	switch g.r.Intn(4) {
	case 0:
		return &ast.BinaryExpr{Op: token.AND, X: cmp(), Y: cmp()}
	case 1:
		return &ast.BinaryExpr{Op: token.OR, X: cmp(), Y: cmp()}
	case 2:
		return &ast.UnaryExpr{Op: token.NOT, X: cmp()}
	default:
		return cmp()
	}
}

func (g *progGen) stmt(depth int) ast.Stmt {
	if depth > 2 {
		return &ast.AssignStmt{Target: &ast.Ident{Name: "x"}, Op: token.ASSIGN, Value: g.expr()}
	}
	switch g.r.Intn(10) {
	case 0:
		return &ast.IfStmt{Cond: g.boolExpr(), Then: g.block(depth + 1)}
	case 1:
		return &ast.IfStmt{Cond: g.boolExpr(), Then: g.block(depth + 1), Else: g.block(depth + 1)}
	case 2:
		return &ast.WhileStmt{Cond: g.boolExpr(), Body: g.block(depth + 1)}
	case 3:
		return &ast.ForStmt{Var: &ast.Ident{Name: "i"}, Seq: g.expr(), Body: g.block(depth + 1)}
	case 4:
		return &ast.ParallelStmt{Body: g.block(depth + 1)}
	case 5:
		return &ast.ParallelForStmt{Var: &ast.Ident{Name: "i"}, Seq: g.expr(), Body: g.block(depth + 1)}
	case 6:
		return &ast.LockStmt{Name: "m", Body: g.block(depth + 1)}
	case 7:
		ops := []token.Kind{token.ASSIGN, token.PLUSASSIGN, token.MINUSASSIGN, token.STARASSIGN}
		return &ast.AssignStmt{Target: &ast.Ident{Name: "x"}, Op: ops[g.r.Intn(len(ops))], Value: g.expr()}
	case 8:
		return &ast.ExprStmt{X: &ast.CallExpr{Fun: &ast.Ident{Name: "print"}, Args: []ast.Expr{g.expr()}}}
	default:
		return &ast.PassStmt{}
	}
}

func (g *progGen) block(depth int) *ast.Block {
	n := g.r.Intn(3) + 1
	b := &ast.Block{}
	for i := 0; i < n; i++ {
		b.Stmts = append(b.Stmts, g.stmt(depth))
	}
	return b
}

func TestRoundTripRandomPrograms(t *testing.T) {
	r := rand.New(rand.NewSource(12345))
	for i := 0; i < 300; i++ {
		g := &progGen{r: r}
		prog := &ast.Program{Funcs: []*ast.FuncDecl{{
			Name: "main",
			Body: g.block(0),
		}}}
		printed := ast.Print(prog)
		reparsed, err := Parse("gen.ttr", printed)
		if err != nil {
			t.Fatalf("generated program failed to parse: %v\n%s", err, printed)
		}
		printed2 := ast.Print(reparsed)
		if printed != printed2 {
			t.Fatalf("round trip mismatch (iteration %d):\n--- first ---\n%s\n--- second ---\n%s", i, printed, printed2)
		}
	}
}

// The parser reads its tokens from the lexer as it goes, and still reports
// a lexical error anywhere in the file in preference to a syntax error
// before it, as it did when the whole file was scanned first.
func TestLexicalErrorWinsOverEarlierSyntaxError(t *testing.T) {
	src := "def main():\n" +
		"    x = = 1\n" +
		"    y = 2\n" +
		"\n" +
		"def f(a int) int:\n" +
		"    b = a + 1\n" +
		"    return b\n" +
		"def g():\n" +
		"    z = 3 $ 4\n"
	_, err := Parse("t.ttr", src)
	if err == nil || err.Error() != `t.ttr:9:11: unexpected character '$'` {
		t.Fatalf("got %v, want the lexical error at 9:11", err)
	}
	if _, err := Parse("t.ttr", "def main():\n    x = = 1\n"); err == nil || !strings.Contains(err.Error(), "syntax error") {
		t.Fatalf("without a lexical error: got %v, want the syntax error", err)
	}
}
