// Package gogen compiles checked Tetra programs to Go source code — the
// reproduction of the paper's future-work native compiler (§VI): "we plan
// to add a native code compiler, which will compile Tetra code into an
// efficient executable, possibly by targeting C with Pthreads as the
// output language." Targeting Go with goroutines is the exact analog on
// this stack. The thread model is the engines' own, internal/rt, reached
// through gort: every generated function takes its Tetra thread, and
// `parallel`, `background`, `parallel for` and `lock` lower to rt's
// Parallel, Background, ParFor, Lock and Unlock with the construct's
// source position. A `parallel for` body is a closure whose parameter is
// the iteration's private induction value; a variable the threads share
// (ast.FuncDecl.Shared) is a gort.Cell, by the engines' rule, and every
// other local is a plain Go variable, which the closures capture.
//
// Generated programs import repro/internal/gort (the runtime support
// library) and repro/internal/sem when they call one of its kernels
// directly, and reproduce the interpreter's observable behaviour: print
// formatting, runtime error messages, exit status. The generated source is
// the paper's promised workflow: develop and debug on the interpreter, then
// `tetra-compile` and `go build` the result for speed.
package gogen

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/ast"
	"repro/internal/sem"
	"repro/internal/stdlib"
	"repro/internal/token"
	"repro/internal/types"
)

// Generate emits a complete Go main package for the checked program.
func Generate(prog *ast.Program) (string, error) {
	if prog.Lookup("main") == nil {
		return "", fmt.Errorf("gogen: program has no main function")
	}
	g := &generator{prog: prog}
	for _, f := range prog.Funcs {
		if err := g.funcDecl(f); err != nil {
			return "", err
		}
	}

	var sb strings.Builder
	sb.WriteString("// Code generated by tetra-compile from " + prog.File + ". DO NOT EDIT.\n")
	sb.WriteString("package main\n\n")
	sb.WriteString("import (\n")
	sb.WriteString("\t\"repro/internal/gort\"\n")
	if g.needsSem {
		sb.WriteString("\t\"repro/internal/sem\"\n")
	}
	sb.WriteString(")\n\n")
	fmt.Fprintf(&sb, "func main() {\n\tgort.Main(%q, %#v, func(t *gort.Thread) { t_main(t, 1) })\n}\n\n", prog.File, prog.LockNames)
	sb.WriteString(g.out.String())
	return sb.String(), nil
}

type generator struct {
	prog     *ast.Program
	out      strings.Builder
	depth    int
	fn       *ast.FuncDecl
	needsSem bool
	// private holds the slots that are a parallel-for body's parameter in
	// the current emission context: plain values even where the function's
	// other locals are cells.
	private []int
	// lockStack tracks lock indices held in the current emission context so
	// return/break/continue can release them (same discipline as the
	// bytecode compiler).
	lockStack []int
	// loopLockBase marks how many locks were held entering the innermost
	// loop.
	loopLockBase []int
	tmp          int
}

func (g *generator) line(format string, args ...any) {
	for i := 0; i < g.depth; i++ {
		g.out.WriteByte('\t')
	}
	fmt.Fprintf(&g.out, format, args...)
	g.out.WriteByte('\n')
}

func (g *generator) tmpName() string {
	g.tmp++
	return fmt.Sprintf("tmp%d", g.tmp)
}

// goType maps a Tetra type to its Go representation.
func goType(t *types.Type) string {
	switch t.Kind() {
	case types.Int:
		return "int64"
	case types.Real:
		return "float64"
	case types.String:
		return "string"
	case types.Bool:
		return "bool"
	case types.Array:
		return "*gort.Array[" + goType(t.Elem()) + "]"
	default:
		return "any"
	}
}

// varName builds the Go identifier for a frame slot.
func (g *generator) varName(slot int) string {
	return fmt.Sprintf("v%d_%s", slot, g.fn.SlotNames[slot])
}

// isCell reports whether slot is a gort.Cell: a shared variable, as on
// the engines, except inside a parallel-for body whose induction value it
// is.
func (g *generator) isCell(slot int) bool {
	return g.fn.Shared != nil && g.fn.Shared[slot] && !slices.Contains(g.private, slot)
}

// load renders a read of slot.
func (g *generator) load(slot int) string {
	if g.isCell(slot) {
		return g.varName(slot) + ".Load()"
	}
	return g.varName(slot)
}

// store emits an assignment of the rendered value v to slot.
func (g *generator) store(slot int, v string) {
	if g.isCell(slot) {
		g.line("%s.Store(%s)", g.varName(slot), v)
	} else {
		g.line("%s = %s", g.varName(slot), v)
	}
}

// pos renders a construct's source position as gort's line, col arguments.
func pos(n interface{ Pos() token.Pos }) string {
	p := n.Pos()
	return fmt.Sprintf("%d, %d", p.Line, p.Col)
}

func (g *generator) funcDecl(f *ast.FuncDecl) error {
	g.fn = f
	g.lockStack = nil
	g.loopLockBase = nil

	// Every generated function carries its Tetra thread and its call
	// depth, so gort.Enter can bound recursion like the engines'
	// rt.MaxCallDepth. A parameter that is a cell arrives as aN.
	var sig strings.Builder
	fmt.Fprintf(&sig, "func t_%s(t *gort.Thread, gdepth int", f.Name)
	for _, p := range f.Params {
		name := g.varName(p.Slot)
		if g.isCell(p.Slot) {
			name = fmt.Sprintf("a%d", p.Slot)
		}
		fmt.Fprintf(&sig, ", %s %s", name, goType(p.Type))
	}
	sig.WriteString(")")
	if f.Result != nil {
		sig.WriteString(" " + goType(f.Result))
	}
	sig.WriteString(" {")
	g.line("%s", sig.String())
	g.depth++
	g.line("gort.Enter(gdepth)")

	// Declare every non-parameter local up front: Tetra locals are
	// function-scoped and may be shared across parallel arms, so Go's
	// block-scoped := cannot host them.
	// Go's zero value is Tetra's for every type but an array, whose zero
	// is an empty array, not nil: the slots a path may read unassigned
	// (ZeroSlots) start at one, so indexing them raises Tetra's error.
	// Each declaration is marked used; only a cell's mark takes its
	// address, since an address-taken local lives in memory, not in a
	// register.
	for slot := 0; slot < f.NumSlots; slot++ {
		t := f.SlotTypes[slot]
		name := g.varName(slot)
		used := "_ = %s"
		switch {
		case g.isCell(slot):
			used = "_ = &%s"
			g.line("var %s gort.Cell[%s]", name, goType(t))
			if slot < len(f.Params) {
				g.store(slot, fmt.Sprintf("a%d", slot))
			} else if t.IsArray() && slices.Contains(f.ZeroSlots, slot) {
				g.store(slot, zeroValue(t))
			}
		case slot < len(f.Params):
			continue
		case t.IsArray() && slices.Contains(f.ZeroSlots, slot):
			g.line("var %s = %s", name, zeroValue(t))
		default:
			g.line("var %s %s", name, goType(t))
		}
		g.line(used, name)
	}

	if err := g.block(f.Body); err != nil {
		return err
	}
	if f.Result != nil && !endsWithReturn(f.Body) {
		// Falling off the end yields the zero value, as in the interpreter.
		g.line("return %s", zeroValue(f.Result))
	}
	g.depth--
	g.line("}")
	g.line("")
	return nil
}

// endsWithReturn reports whether every path through the block's final
// statement returns, so the fallthrough zero-return can be omitted. Only
// the common shapes are recognized; a conservative false just emits a
// harmless extra return.
func endsWithReturn(b *ast.Block) bool {
	if len(b.Stmts) == 0 {
		return false
	}
	switch last := b.Stmts[len(b.Stmts)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.IfStmt:
		return last.Else != nil && endsWithReturn(last.Then) && endsWithReturn(last.Else)
	default:
		return false
	}
}

func zeroValue(t *types.Type) string {
	switch t.Kind() {
	case types.Int:
		return "int64(0)"
	case types.Real:
		return "float64(0)"
	case types.String:
		return `""`
	case types.Bool:
		return "false"
	case types.Array:
		return fmt.Sprintf("gort.MakeArray[%s](0)", goType(t.Elem()))
	default:
		return "nil"
	}
}

func (g *generator) block(b *ast.Block) error {
	for _, s := range b.Stmts {
		if err := g.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (g *generator) stmt(s ast.Stmt) error {
	switch s := s.(type) {
	case *ast.ExprStmt:
		call := s.X.(*ast.CallExpr)
		e, err := g.expr(call)
		if err != nil {
			return err
		}
		if call.Type() != nil {
			g.line("_ = %s", e)
		} else {
			g.line("%s", e)
		}
		return nil

	case *ast.AssignStmt:
		return g.assign(s)

	case *ast.IfStmt:
		cond, err := g.expr(s.Cond)
		if err != nil {
			return err
		}
		g.line("if %s {", cond)
		g.depth++
		if err := g.block(s.Then); err != nil {
			return err
		}
		g.depth--
		if s.Else != nil {
			g.line("} else {")
			g.depth++
			if err := g.block(s.Else); err != nil {
				return err
			}
			g.depth--
		}
		g.line("}")
		return nil

	case *ast.WhileStmt:
		cond, err := g.expr(s.Cond)
		if err != nil {
			return err
		}
		g.pushLoop()
		g.line("for %s {", cond)
		g.depth++
		g.line("gort.Tick(t, %s)", pos(s))
		if err := g.block(s.Body); err != nil {
			return err
		}
		g.depth--
		g.line("}")
		g.popLoop()
		return nil

	case *ast.ForStmt:
		seq, err := g.expr(s.Seq)
		if err != nil {
			return err
		}
		it := g.tmpName()
		if s.Seq.Type().Kind() == types.String {
			g.line("for _, %s := range %s(%s) {", it, g.native("sem.Runes"), seq)
		} else {
			g.line("for _, %s := range (%s).E {", it, seq)
		}
		g.pushLoop()
		g.depth++
		g.line("gort.Tick(t, %s)", pos(s))
		g.store(s.Var.Slot, it)
		if err := g.block(s.Body); err != nil {
			return err
		}
		g.depth--
		g.line("}")
		g.popLoop()
		return nil

	case *ast.ParallelStmt:
		return g.arms("gort.Parallel", s, s.Body)

	case *ast.BackgroundStmt:
		return g.arms("gort.Background", s, s.Body)

	case *ast.ParallelForStmt:
		seq, err := g.expr(s.Seq)
		if err != nil {
			return err
		}
		elemType := goType(g.fn.SlotTypes[s.Var.Slot])
		elems := "(" + seq + ").E"
		if s.Seq.Type().Kind() == types.String {
			elems = g.native("sem.Runes") + "(" + seq + ")"
		}
		// The induction variable is the body closure's parameter: each
		// iteration gets its private copy, shadowing the function-scoped
		// slot — exactly the engines' forked induction cell.
		g.line("gort.ParFor(t, %s, %s, func(t *gort.Thread, %s %s) {", pos(s), elems, g.varName(s.Var.Slot), elemType)
		g.depth++
		g.line("_ = %s", g.varName(s.Var.Slot))
		g.private = append(g.private, s.Var.Slot)
		if err := g.block(s.Body); err != nil {
			return err
		}
		g.private = g.private[:len(g.private)-1]
		g.depth--
		g.line("})")
		return nil

	case *ast.LockStmt:
		g.line("gort.Lock(t, %d, %s)", s.LockIndex, pos(s))
		g.lockStack = append(g.lockStack, s.LockIndex)
		if err := g.block(s.Body); err != nil {
			return err
		}
		g.lockStack = g.lockStack[:len(g.lockStack)-1]
		g.line("gort.Unlock(t, %d)", s.LockIndex)
		return nil

	case *ast.ReturnStmt:
		for i := len(g.lockStack) - 1; i >= 0; i-- {
			g.line("gort.Unlock(t, %d)", g.lockStack[i])
		}
		if s.Value == nil {
			g.line("return")
			return nil
		}
		e, err := g.exprAs(s.Value, g.fn.Result)
		if err != nil {
			return err
		}
		g.line("return %s", e)
		return nil

	case *ast.BreakStmt:
		g.releaseLoopLocks()
		g.line("break")
		return nil

	case *ast.ContinueStmt:
		g.releaseLoopLocks()
		g.line("continue")
		return nil

	case *ast.PassStmt:
		return nil
	}
	return fmt.Errorf("gogen: unsupported statement %T", s)
}

func (g *generator) pushLoop() {
	g.loopLockBase = append(g.loopLockBase, len(g.lockStack))
}

func (g *generator) popLoop() {
	g.loopLockBase = g.loopLockBase[:len(g.loopLockBase)-1]
}

func (g *generator) releaseLoopLocks() {
	if len(g.loopLockBase) == 0 {
		return
	}
	base := g.loopLockBase[len(g.loopLockBase)-1]
	for i := len(g.lockStack) - 1; i >= base; i-- {
		g.line("gort.Unlock(t, %d)", g.lockStack[i])
	}
}

// arms emits a parallel or background block at s as a call of fn with one
// thread closure per statement of body.
func (g *generator) arms(fn string, s ast.Stmt, body *ast.Block) error {
	g.line("%s(t, %s,", fn, pos(s))
	g.depth++
	for _, child := range body.Stmts {
		g.line("func(t *gort.Thread) {")
		g.depth++
		if err := g.stmt(child); err != nil {
			return err
		}
		g.depth--
		g.line("},")
	}
	g.depth--
	g.line(")")
	return nil
}

func (g *generator) assign(s *ast.AssignStmt) error {
	switch target := s.Target.(type) {
	case *ast.Ident:
		if s.Op == token.ASSIGN {
			e, err := g.exprAs(s.Value, target.Type())
			if err != nil {
				return err
			}
			g.store(target.Slot, e)
			return nil
		}
		v, err := g.expr(s.Value)
		if err != nil {
			return err
		}
		g.store(target.Slot, operator(s.Kernel, g.load(target.Slot), v, target.Type().IsArray()))
		return nil

	case *ast.IndexExpr:
		arr, err := g.expr(target.X)
		if err != nil {
			return err
		}
		idx, err := g.expr(target.Index)
		if err != nil {
			return err
		}
		if s.Op == token.ASSIGN {
			v, err := g.exprAs(s.Value, target.Type())
			if err != nil {
				return err
			}
			g.line("(%s).Set(%s, %s)", arr, idx, v)
			return nil
		}
		// Augmented element assignment: bind array and index once.
		a, i := g.tmpName(), g.tmpName()
		g.line("{")
		g.depth++
		g.line("%s := %s", a, arr)
		g.line("%s := %s", i, idx)
		v, err := g.expr(s.Value)
		if err != nil {
			return err
		}
		g.line("%s.Set(%s, %s)", a, i, operator(s.Kernel, fmt.Sprintf("%s.Get(%s)", a, i), v, target.Type().IsArray()))
		g.depth--
		g.line("}")
		return nil
	}
	return fmt.Errorf("gogen: bad assignment target %T", s.Target)
}

// exprAs renders e and widens int → real when the destination requires it.
func (g *generator) exprAs(e ast.Expr, dst *types.Type) (string, error) {
	s, err := g.expr(e)
	if err != nil {
		return "", err
	}
	if dst.Kind() == types.Real && e.Type().Kind() == types.Int {
		return "float64(" + s + ")", nil
	}
	return s, nil
}

func (g *generator) expr(e ast.Expr) (string, error) {
	switch e := e.(type) {
	case *ast.IntLit:
		return fmt.Sprintf("int64(%d)", e.Value), nil
	case *ast.RealLit:
		return fmt.Sprintf("float64(%s)", strconv.FormatFloat(e.Value, 'g', -1, 64)), nil
	case *ast.StringLit:
		return strconv.Quote(e.Value), nil
	case *ast.BoolLit:
		if e.Value {
			return "true", nil
		}
		return "false", nil

	case *ast.Ident:
		return g.load(e.Slot), nil

	case *ast.ArrayLit:
		elemT := e.Type().Elem()
		parts := make([]string, len(e.Elems))
		for i, el := range e.Elems {
			s, err := g.exprAs(el, elemT)
			if err != nil {
				return "", err
			}
			parts[i] = s
		}
		return fmt.Sprintf("gort.NewArray[%s](%s)", goType(elemT), strings.Join(parts, ", ")), nil

	case *ast.RangeLit:
		lo, err := g.expr(e.Lo)
		if err != nil {
			return "", err
		}
		hi, err := g.expr(e.Hi)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("gort.Range(%s, %s)", lo, hi), nil

	case *ast.UnaryExpr:
		x, err := g.expr(e.X)
		if err != nil {
			return "", err
		}
		if e.Op == token.NOT {
			return "(!(" + x + "))", nil
		}
		return "(-(" + nonConst(x, e.X) + "))", nil

	case *ast.BinaryExpr:
		return g.binary(e)

	case *ast.IndexExpr:
		x, err := g.expr(e.X)
		if err != nil {
			return "", err
		}
		idx, err := g.expr(e.Index)
		if err != nil {
			return "", err
		}
		if e.X.Type().Kind() == types.String {
			return fmt.Sprintf("gort.StrIndex(%s, %s)", x, idx), nil
		}
		return fmt.Sprintf("(%s).Get(%s)", x, idx), nil

	case *ast.CallExpr:
		return g.call(e)
	}
	return "", fmt.Errorf("gogen: unsupported expression %T", e)
}

func (g *generator) binary(e *ast.BinaryExpr) (string, error) {
	l, err := g.expr(e.X)
	if err != nil {
		return "", err
	}
	r, err := g.expr(e.Y)
	if err != nil {
		return "", err
	}
	if isNumLit(e.X) {
		r = nonConst(r, e.Y)
	}
	switch e.Op {
	case token.AND:
		return "((" + l + ") && (" + r + "))", nil
	case token.OR:
		return "((" + l + ") || (" + r + "))", nil
	}
	return operator(e.Kernel, l, r, e.X.Type().IsArray()), nil
}

// goOps is the Go spelling of each sem operator.
var goOps = [...]string{sem.Add: "+", sem.Sub: "-", sem.Mul: "*", sem.Div: "/", sem.Mod: "%",
	sem.Eq: "==", sem.Ne: "!=", sem.Lt: "<", sem.Le: "<=", sem.Gt: ">", sem.Ge: ">="}

// operator renders kernel k on the rendered operands l and r: the int side
// of a mixed pair converted to float64, a division or modulo through the
// gort kernel that raises on a zero divisor, string + through gort.Concat,
// which charges the built bytes against the allocation budget as the
// engines do, and == and != through gort.Eq when the operands are arrays.
// Every other operator is Go's own.
func operator(k ast.Kernel, l, r string, arrays bool) string {
	switch k.Operands {
	case ast.IntReal:
		l = "float64(" + l + ")"
	case ast.RealInt:
		r = "float64(" + r + ")"
	}
	switch {
	case arrays && k.Op == sem.Eq:
		return fmt.Sprintf("gort.Eq(%s, %s)", l, r)
	case arrays && k.Op == sem.Ne:
		return fmt.Sprintf("(!gort.Eq(%s, %s))", l, r)
	case k.Operands == ast.Generic && k.Op == sem.Add:
		return fmt.Sprintf("gort.Concat(%s, %s)", l, r)
	case k.Op == sem.Div && k.Operands == ast.Ints:
		return fmt.Sprintf("gort.DivInt(%s, %s)", l, r)
	case k.Op == sem.Mod && k.Operands == ast.Ints:
		return fmt.Sprintf("gort.ModInt(%s, %s)", l, r)
	case k.Op == sem.Div:
		return fmt.Sprintf("gort.DivReal(%s, %s)", l, r)
	case k.Op == sem.Mod:
		return fmt.Sprintf("gort.ModReal(%s, %s)", l, r)
	}
	return "((" + l + ") " + goOps[k.Op] + " (" + r + "))"
}

// isNumLit reports whether e is a numeric literal, which gogen writes as a
// typed Go constant.
func isNumLit(e ast.Expr) bool {
	switch e.(type) {
	case *ast.IntLit, *ast.RealLit:
		return true
	}
	return false
}

// nonConst passes text, the rendering of e, through gort.Dyn when e is a
// numeric literal. An operator whose operands are all literals would
// otherwise be a Go constant expression, which the Go compiler evaluates
// exactly and rejects when it overflows, where every engine wraps (int) or
// reaches inf (real) at run time. Only one operand needs it, so every other
// operator is still a plain constant or variable operation.
func nonConst(text string, e ast.Expr) string {
	if !isNumLit(e) {
		return text
	}
	return "gort.Dyn(" + text + ")"
}

func (g *generator) call(e *ast.CallExpr) (string, error) {
	if !e.IsBuiltin {
		callee := g.prog.Funcs[e.FuncIndex]
		parts := make([]string, len(e.Args))
		for i, a := range e.Args {
			s, err := g.exprAs(a, callee.Params[i].Type)
			if err != nil {
				return "", err
			}
			parts[i] = s
		}
		args := append([]string{"t", "gdepth+1"}, parts...)
		return fmt.Sprintf("t_%s(%s)", callee.Name, strings.Join(args, ", ")), nil
	}
	return g.builtin(e)
}

// native returns fn, a qualified gort or sem function, for emission, noting
// the sem import when it is the first of that package.
func (g *generator) native(fn string) string {
	if strings.HasPrefix(fn, "sem.") {
		g.needsSem = true
	}
	return fn
}

// builtin emits a library call. A row with a parameter list is its Native
// over the arguments widened to the parameters, as for a user function;
// the variadic and generic rows, whose native form depends on the argument
// types, are the arms of generic. (TestEveryBuiltinCompilesNatively holds
// that every row has one or the other.)
func (g *generator) builtin(e *ast.CallExpr) (string, error) {
	b := stdlib.ByID(e.Builtin)
	a := make([]string, len(e.Args))
	for i, arg := range e.Args {
		want := arg.Type()
		switch {
		case b.Check == nil:
			want = b.Params[i]
		case b.ID == stdlib.Min || b.ID == stdlib.Max:
			want = e.Type() // real as soon as one argument is
		case b.ID == stdlib.Push && i == 1:
			want = e.Args[0].Type().Elem()
		}
		s, err := g.exprAs(arg, want)
		if err != nil {
			return "", err
		}
		a[i] = s
	}
	var call string
	if b.Check == nil {
		call = g.native(b.Native) + "(" + strings.Join(a, ", ") + ")"
	} else {
		call = g.generic(b.ID, e, a)
	}
	if b.Built {
		call = "gort.Built(" + call + ")"
	}
	return call, nil
}

// generic picks the native form of a variadic or generic builtin from the
// types the checker gave the call; a holds the rendered arguments.
func (g *generator) generic(id int, e *ast.CallExpr, a []string) string {
	all := strings.Join(a, ", ")
	switch id {
	case stdlib.Print:
		return "gort.Print(" + all + ")"
	case stdlib.Len:
		if e.Args[0].Type().Kind() == types.String {
			return "gort.StrLen(" + all + ")"
		}
		return "(" + all + ").Len()"
	case stdlib.Range:
		return "gort.RangeN(" + all + ")"
	case stdlib.Abs:
		return g.native("sem.Abs"+kindName(e.Type())) + "(" + all + ")"
	case stdlib.Min:
		return g.native("sem.Min"+kindName(e.Type())+"s") + "(" + all + ")"
	case stdlib.Max:
		return g.native("sem.Max"+kindName(e.Type())+"s") + "(" + all + ")"
	case stdlib.ToString:
		return "gort.ToStringOf(" + all + ")"
	case stdlib.ToInt:
		switch from := e.Args[0].Type(); from.Kind() {
		case types.Int:
			return all
		case types.Bool:
			return g.native("sem.BoolToInt") + "(" + all + ")"
		default:
			return "gort.ToIntFrom" + kindName(from) + "(" + all + ")"
		}
	case stdlib.ToReal:
		if e.Args[0].Type().Kind() == types.String {
			return "gort.ToRealFromString(" + all + ")"
		}
		return "float64(" + all + ")"
	case stdlib.Sort:
		return "gort.SortArray(" + all + ")"
	case stdlib.Push:
		return "(" + a[0] + ").Push(" + a[1] + ")"
	}
	return "" // no row gets here: TestEveryBuiltinCompilesNatively calls each
}

// kindName spells a numeric or string type inside the name of a sem or gort
// function.
func kindName(t *types.Type) string {
	switch t.Kind() {
	case types.Int:
		return "Int"
	case types.Real:
		return "Real"
	}
	return "String"
}
