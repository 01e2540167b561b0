// Package check implements Tetra's semantic analysis: type checking,
// flow-based local type inference, variable-to-slot resolution, and
// collection of lock names and parallelism facts used by the runtimes.
//
// The paper (§IV): "After the code is parsed into an AST, it has type
// checking and type inference applied to it. Because type inference is only
// done on the local scope, a simple flow-based algorithm suffices." That is
// exactly the algorithm here: a local variable's type is fixed by its first
// (textually earliest) assignment; later assignments and uses must agree,
// with the single implicit widening int → real.
package check

import (
	"fmt"
	"strings"

	"repro/internal/ast"
	"repro/internal/sem"
	"repro/internal/stdlib"
	"repro/internal/token"
	"repro/internal/types"
)

// Error is a single semantic error with its position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: type error: %s", e.Pos, e.Msg) }

// ErrorList collects the semantic errors of one Check call.
type ErrorList []*Error

func (l ErrorList) Error() string {
	if len(l) == 0 {
		return "no errors"
	}
	parts := make([]string, len(l))
	for i, e := range l {
		parts[i] = e.Error()
	}
	return strings.Join(parts, "\n")
}

// maxErrors bounds how many errors are reported before giving up, so a
// cascade from one mistake does not flood a student's terminal.
const maxErrors = 20

// Check type-checks and resolves the program in place. On success it fills
// in: expression types, variable slots, function indices, builtin bindings,
// lock indices, per-function slot counts, parallelism flags and shared
// slots, and the program-wide lock-name table. The error, when non-nil, is an ErrorList.
func Check(prog *ast.Program) error {
	c := &checker{prog: prog, lockIndex: map[string]int{}}
	c.collectSignatures()
	if len(c.errs) == 0 {
		for _, f := range prog.Funcs {
			c.checkFunc(f)
		}
	}
	if len(c.errs) > 0 {
		return c.errs
	}
	for _, f := range prog.Funcs {
		f.Shared = shareSlots(f)
	}
	return nil
}

type varInfo struct {
	typ  *types.Type
	slot int
	pos  token.Pos
}

type checker struct {
	prog *ast.Program
	errs ErrorList

	lockIndex map[string]int

	// Per-function state.
	fn       *ast.FuncDecl
	vars     map[string]*varInfo
	nextSlot int
	depth    int // block nesting depth below the function body
	loops    int // nesting depth of loops, for break/continue
	// parCtx counts the nesting depth of parallel constructs within the
	// current function, used to reject `return`/`break`/`continue` that
	// would cross a thread boundary.
	parCtx int
}

type bailout struct{}

func (c *checker) errorf(pos token.Pos, format string, args ...any) {
	c.errs = append(c.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
	if len(c.errs) >= maxErrors {
		panic(bailout{})
	}
}

func (c *checker) collectSignatures() {
	c.prog.FuncIndex = make(map[string]int, len(c.prog.Funcs))
	for i, f := range c.prog.Funcs {
		if prev, ok := c.prog.FuncIndex[f.Name]; ok {
			c.errorf(f.Pos(), "function %s redeclared (previous declaration at %s)",
				f.Name, c.prog.Funcs[prev].Pos())
			continue
		}
		c.prog.FuncIndex[f.Name] = i
	}
	if f := c.prog.Lookup("main"); f != nil {
		if len(f.Params) != 0 {
			c.errorf(f.Pos(), "main must not take parameters")
		}
		if f.Result != nil {
			c.errorf(f.Pos(), "main must not return a value")
		}
	}
}

func (c *checker) checkFunc(f *ast.FuncDecl) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(bailout); !ok {
				panic(r)
			}
		}
	}()
	c.fn = f
	c.vars = make(map[string]*varInfo)
	c.nextSlot = 0
	c.depth = 0
	c.loops = 0
	c.parCtx = 0
	for _, p := range f.Params {
		if _, ok := c.vars[p.Name]; ok {
			c.errorf(p.Pos(), "duplicate parameter %s", p.Name)
			continue
		}
		p.Slot = c.declare(p.Name, p.Type, p.Pos())
	}
	for _, s := range f.Body.Stmts {
		c.checkStmt(s)
	}
	f.NumSlots = c.nextSlot
}

func (c *checker) declare(name string, t *types.Type, pos token.Pos) int {
	slot := c.nextSlot
	c.nextSlot++
	c.vars[name] = &varInfo{typ: t, slot: slot, pos: pos}
	c.fn.SlotNames = append(c.fn.SlotNames, name)
	c.fn.SlotTypes = append(c.fn.SlotTypes, t)
	return slot
}

// checkBlock checks a block nested inside the function body.
func (c *checker) checkBlock(b *ast.Block) {
	c.depth++
	for _, s := range b.Stmts {
		c.checkStmt(s)
	}
	c.depth--
}

// declareLocal declares a local at its first assignment. A use must come
// textually after that assignment, so when it is a statement of the
// function body itself it has run before any use can. Inside a nested
// block it may not have (an untaken branch, a loop that ran zero times, a
// background thread that has not got there yet), and an induction variable
// is unassigned after a loop over nothing: those slots are recorded in
// ZeroSlots. The rule is conservative — a lock body always runs, and is
// still a nested block.
func (c *checker) declareLocal(name string, t *types.Type, pos token.Pos, induction bool) int {
	slot := c.declare(name, t, pos)
	if induction || c.depth > 0 {
		c.fn.ZeroSlots = append(c.fn.ZeroSlots, slot)
	}
	return slot
}

func (c *checker) checkStmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			c.checkCall(call)
			return
		}
		c.errorf(s.Pos(), "expression statement must be a function call")
		c.checkExpr(s.X)

	case *ast.AssignStmt:
		c.checkAssign(s)

	case *ast.IfStmt:
		c.condition(s.Cond, "if")
		c.checkBlock(s.Then)
		if s.Else != nil {
			c.checkBlock(s.Else)
		}

	case *ast.WhileStmt:
		c.condition(s.Cond, "while")
		c.loops++
		c.checkBlock(s.Body)
		c.loops--

	case *ast.ForStmt:
		c.checkForHeader(s.Var, s.Seq)
		c.loops++
		c.checkBlock(s.Body)
		c.loops--

	case *ast.ParallelForStmt:
		c.fn.HasParallel = true
		c.checkForHeader(s.Var, s.Seq)
		c.enterParallel(s.Body)

	case *ast.ParallelStmt:
		c.fn.HasParallel = true
		c.enterParallel(s.Body)

	case *ast.BackgroundStmt:
		c.fn.HasParallel = true
		c.enterParallel(s.Body)

	case *ast.LockStmt:
		idx, ok := c.lockIndex[s.Name]
		if !ok {
			idx = len(c.prog.LockNames)
			c.lockIndex[s.Name] = idx
			c.prog.LockNames = append(c.prog.LockNames, s.Name)
		}
		s.LockIndex = idx
		c.checkBlock(s.Body)

	case *ast.ReturnStmt:
		if c.parCtx > 0 {
			c.errorf(s.Pos(), "return is not allowed inside a parallel or background block")
		}
		switch {
		case s.Value == nil && c.fn.Result != nil:
			c.errorf(s.Pos(), "missing return value (function %s returns %s)", c.fn.Name, c.fn.Result)
		case s.Value != nil && c.fn.Result == nil:
			c.errorf(s.Pos(), "function %s does not return a value", c.fn.Name)
		case s.Value != nil:
			t := c.checkExprExpected(s.Value, c.fn.Result)
			if t != nil && !types.AssignableTo(t, c.fn.Result) {
				c.errorf(s.Pos(), "cannot return %s from function returning %s", t, c.fn.Result)
			}
		}

	case *ast.BreakStmt:
		if c.loops == 0 {
			c.errorf(s.Pos(), "break outside of a loop")
		}

	case *ast.ContinueStmt:
		if c.loops == 0 {
			c.errorf(s.Pos(), "continue outside of a loop")
		}

	case *ast.PassStmt:
		// nothing

	default:
		c.errorf(s.Pos(), "internal: unknown statement %T", s)
	}
}

// enterParallel checks a parallel/background/parallel-for body. Statements
// inside run on their own threads, so break and continue may not target a
// loop outside the block; the loop counter is suspended for the duration.
func (c *checker) enterParallel(b *ast.Block) {
	savedLoops := c.loops
	c.loops = 0
	c.parCtx++
	c.checkBlock(b)
	c.parCtx--
	c.loops = savedLoops
}

// checkForHeader types the sequence and declares/reuses the induction
// variable for both sequential and parallel for loops.
func (c *checker) checkForHeader(v *ast.Ident, seq ast.Expr) {
	st := c.checkExpr(seq)
	var elem *types.Type
	switch {
	case st == nil:
		return
	case st.IsArray():
		elem = st.Elem()
	case st.Kind() == types.String:
		elem = types.StringType // iterate characters as 1-char strings
	default:
		c.errorf(seq.Pos(), "cannot iterate over %s (need an array or string)", st)
		return
	}
	if info, ok := c.vars[v.Name]; ok {
		if !types.Equal(info.typ, elem) {
			c.errorf(v.Pos(), "loop variable %s has type %s here but was %s", v.Name, elem, info.typ)
			return
		}
		v.Slot = info.slot
		v.SetType(info.typ)
		return
	}
	v.Slot = c.declareLocal(v.Name, elem, v.Pos(), true)
	v.SetType(elem)
}

func (c *checker) condition(e ast.Expr, what string) {
	t := c.checkExpr(e)
	if t != nil && t.Kind() != types.Bool {
		c.errorf(e.Pos(), "%s condition must be bool, got %s", what, t)
	}
}

func (c *checker) checkAssign(s *ast.AssignStmt) {
	switch target := s.Target.(type) {
	case *ast.Ident:
		info, exists := c.vars[target.Name]
		if s.Op == token.ASSIGN && !exists {
			// First assignment: infer the variable's type from the value.
			vt := c.checkExpr(s.Value)
			if vt == nil {
				c.errorf(s.Value.Pos(), "cannot infer type of %s from a void expression", target.Name)
				return
			}
			target.Slot = c.declareLocal(target.Name, vt, target.Pos(), false)
			target.SetType(vt)
			s.Define = true
			return
		}
		if !exists {
			c.errorf(target.Pos(), "undefined variable %s", target.Name)
			c.checkExpr(s.Value)
			return
		}
		target.Slot = info.slot
		target.SetType(info.typ)
		c.checkAssignValue(s, info.typ)

	case *ast.IndexExpr:
		tt := c.checkExpr(target)
		if tt == nil {
			c.checkExpr(s.Value)
			return
		}
		c.checkAssignValue(s, tt)

	default:
		c.errorf(s.Target.Pos(), "invalid assignment target")
	}
}

// checkAssignValue verifies value against the target type for plain and
// augmented assignments.
func (c *checker) checkAssignValue(s *ast.AssignStmt, targetType *types.Type) {
	vt := c.checkExprExpected(s.Value, targetType)
	if vt == nil {
		c.errorf(s.Value.Pos(), "cannot assign a void expression")
		return
	}
	if s.Op == token.ASSIGN {
		if !types.AssignableTo(vt, targetType) {
			c.errorf(s.OpPos, "cannot assign %s to %s", vt, targetType)
		}
		return
	}
	// Augmented assignment: target op= value behaves like target = target op value.
	binOp := augmented[s.Op]
	rt := c.arithResult(binOp, targetType, vt, s.OpPos)
	if rt == nil {
		return
	}
	s.Kernel = kernel(binOp, targetType, vt)
	if !types.AssignableTo(rt, targetType) {
		c.errorf(s.OpPos, "%s %s %s yields %s, which cannot be stored back into %s",
			targetType, binOp, vt, rt, targetType)
	}
}

// augmented maps an augmented-assignment operator to the binary one it
// applies.
var augmented = map[token.Kind]token.Kind{
	token.PLUSASSIGN:    token.PLUS,
	token.MINUSASSIGN:   token.MINUS,
	token.STARASSIGN:    token.STAR,
	token.SLASHASSIGN:   token.SLASH,
	token.PERCENTASSIGN: token.PERCENT,
}

// semOps maps an arithmetic or comparison operator to its sem operator.
var semOps = map[token.Kind]sem.Op{
	token.PLUS: sem.Add, token.MINUS: sem.Sub, token.STAR: sem.Mul, token.SLASH: sem.Div, token.PERCENT: sem.Mod,
	token.EQ: sem.Eq, token.NE: sem.Ne, token.LT: sem.Lt, token.LE: sem.Le, token.GT: sem.Gt, token.GE: sem.Ge,
}

// kernel resolves op on operands of types lt and rt, which the checker has
// accepted, to the kernel it runs: ints and reals each have their own, a
// mixed pair widens its int side and runs the real one, and anything else
// — strings, bools, arrays — is generic.
func kernel(op token.Kind, lt, rt *types.Type) ast.Kernel {
	k := ast.Kernel{Op: semOps[op]}
	l, r := lt.Kind(), rt.Kind()
	switch {
	case l == types.Int && r == types.Int:
		k.Operands = ast.Ints
	case l == types.Real && r == types.Real:
		k.Operands = ast.Reals
	case l == types.Int && r == types.Real:
		k.Operands = ast.IntReal
	case l == types.Real && r == types.Int:
		k.Operands = ast.RealInt
	}
	return k
}

// checkExpr types an expression with no contextual expectation.
func (c *checker) checkExpr(e ast.Expr) *types.Type {
	return c.checkExprExpected(e, nil)
}

// checkExprExpected types an expression. want, when non-nil, provides the
// contextual type used to give empty array literals a type.
func (c *checker) checkExprExpected(e ast.Expr, want *types.Type) *types.Type {
	switch e := e.(type) {
	case *ast.IntLit:
		e.SetType(types.IntType)
	case *ast.RealLit:
		e.SetType(types.RealType)
	case *ast.StringLit:
		e.SetType(types.StringType)
	case *ast.BoolLit:
		e.SetType(types.BoolType)

	case *ast.Ident:
		info, ok := c.vars[e.Name]
		if !ok {
			c.errorf(e.Pos(), "undefined variable %s", e.Name)
			return nil
		}
		e.Slot = info.slot
		e.SetType(info.typ)

	case *ast.ArrayLit:
		return c.checkArrayLit(e, want)

	case *ast.RangeLit:
		lo := c.checkExpr(e.Lo)
		hi := c.checkExpr(e.Hi)
		if (lo != nil && lo.Kind() != types.Int) || (hi != nil && hi.Kind() != types.Int) {
			c.errorf(e.Pos(), "range bounds must be int")
		}
		e.SetType(types.ArrayOf(types.IntType))

	case *ast.UnaryExpr:
		t := c.checkExpr(e.X)
		if t == nil {
			return nil
		}
		if e.Op == token.NOT {
			if t.Kind() != types.Bool {
				c.errorf(e.Pos(), "operator not requires bool, got %s", t)
				return nil
			}
			e.SetType(types.BoolType)
		} else {
			if !t.IsNumeric() {
				c.errorf(e.Pos(), "unary - requires int or real, got %s", t)
				return nil
			}
			e.SetType(t)
		}

	case *ast.BinaryExpr:
		return c.checkBinary(e)

	case *ast.IndexExpr:
		xt := c.checkExpr(e.X)
		it := c.checkExpr(e.Index)
		if it != nil && it.Kind() != types.Int {
			c.errorf(e.Index.Pos(), "array index must be int, got %s", it)
		}
		switch {
		case xt == nil:
			return nil
		case xt.IsArray():
			e.SetType(xt.Elem())
		case xt.Kind() == types.String:
			e.SetType(types.StringType)
		default:
			c.errorf(e.Pos(), "cannot index %s", xt)
			return nil
		}

	case *ast.CallExpr:
		t := c.checkCall(e)
		if t == nil {
			// A void call used where a value is needed. ExprStmt handles the
			// legal statement form before reaching here.
			c.errorf(e.Pos(), "%s does not return a value", e.Fun.Name)
			return nil
		}
		return t

	default:
		c.errorf(e.Pos(), "internal: unknown expression %T", e)
		return nil
	}
	return e.Type()
}

func (c *checker) checkArrayLit(e *ast.ArrayLit, want *types.Type) *types.Type {
	if len(e.Elems) == 0 {
		if want != nil && want.IsArray() {
			e.SetType(want)
			return want
		}
		c.errorf(e.Pos(), "cannot infer the type of an empty array literal here")
		return nil
	}
	var wantElem *types.Type
	if want != nil && want.IsArray() {
		wantElem = want.Elem()
	}
	var elem *types.Type
	sawReal := false
	for _, el := range e.Elems {
		t := c.checkExprExpected(el, wantElem)
		if t == nil {
			return nil
		}
		if t.Kind() == types.Real {
			sawReal = true
		}
		switch {
		case elem == nil:
			elem = t
		case types.Equal(elem, t):
		case elem.IsNumeric() && t.IsNumeric():
			// Mixed int/real literal widens to [real].
		default:
			c.errorf(el.Pos(), "mixed element types in array literal: %s and %s", elem, t)
			return nil
		}
	}
	if sawReal && elem.IsNumeric() {
		elem = types.RealType
	}
	if wantElem != nil && types.AssignableTo(elem, wantElem) {
		elem = wantElem
	}
	t := types.ArrayOf(elem)
	e.SetType(t)
	return t
}

func (c *checker) checkBinary(e *ast.BinaryExpr) *types.Type {
	switch e.Op {
	case token.AND, token.OR:
		lt := c.checkExpr(e.X)
		rt := c.checkExpr(e.Y)
		if (lt != nil && lt.Kind() != types.Bool) || (rt != nil && rt.Kind() != types.Bool) {
			c.errorf(e.OpPos, "operator %s requires bool operands", e.Op)
			return nil
		}
		e.SetType(types.BoolType)
		return e.Type()

	case token.EQ, token.NE:
		lt := c.checkExpr(e.X)
		rt := c.checkExpr(e.Y)
		if lt == nil || rt == nil {
			return nil
		}
		if !comparable(lt, rt) {
			c.errorf(e.OpPos, "cannot compare %s and %s", lt, rt)
			return nil
		}
		e.Kernel = kernel(e.Op, lt, rt)
		e.SetType(types.BoolType)
		return e.Type()

	case token.LT, token.LE, token.GT, token.GE:
		lt := c.checkExpr(e.X)
		rt := c.checkExpr(e.Y)
		if lt == nil || rt == nil {
			return nil
		}
		ordered := (lt.IsNumeric() && rt.IsNumeric()) ||
			(lt.Kind() == types.String && rt.Kind() == types.String)
		if !ordered {
			c.errorf(e.OpPos, "operator %s requires two numbers or two strings, got %s and %s", e.Op, lt, rt)
			return nil
		}
		e.Kernel = kernel(e.Op, lt, rt)
		e.SetType(types.BoolType)
		return e.Type()

	default: // + - * / %
		lt := c.checkExpr(e.X)
		rt := c.checkExpr(e.Y)
		if lt == nil || rt == nil {
			return nil
		}
		t := c.arithResult(e.Op, lt, rt, e.OpPos)
		if t == nil {
			return nil
		}
		e.Kernel = kernel(e.Op, lt, rt)
		e.SetType(t)
		return t
	}
}

// arithResult computes the result type of an arithmetic operator, or nil
// after reporting an error.
func (c *checker) arithResult(op token.Kind, lt, rt *types.Type, pos token.Pos) *types.Type {
	if op == token.PLUS && lt.Kind() == types.String && rt.Kind() == types.String {
		return types.StringType
	}
	if lt.IsNumeric() && rt.IsNumeric() {
		if lt.Kind() == types.Int && rt.Kind() == types.Int {
			return types.IntType
		}
		return types.RealType
	}
	c.errorf(pos, "operator %s requires numeric operands, got %s and %s", op, lt, rt)
	return nil
}

func comparable(a, b *types.Type) bool {
	if a.IsNumeric() && b.IsNumeric() {
		return true
	}
	return types.Equal(a, b)
}

// checkCall types a call expression, binding it to a user function (which
// shadows any builtin of the same name) or to a builtin. It returns the
// result type, nil for void.
func (c *checker) checkCall(e *ast.CallExpr) *types.Type {
	if idx, ok := c.prog.FuncIndex[e.Fun.Name]; ok {
		f := c.prog.Funcs[idx]
		e.IsBuiltin = false
		e.FuncIndex = idx
		if len(e.Args) != len(f.Params) {
			c.errorf(e.Pos(), "%s expects %d argument(s), got %d", f.Name, len(f.Params), len(e.Args))
			for _, a := range e.Args {
				c.checkExpr(a)
			}
			return f.Result
		}
		for i, a := range e.Args {
			at := c.checkExprExpected(a, f.Params[i].Type)
			if at != nil && !types.AssignableTo(at, f.Params[i].Type) {
				c.errorf(a.Pos(), "argument %d of %s: cannot use %s as %s", i+1, f.Name, at, f.Params[i].Type)
			}
		}
		e.SetType(f.Result)
		return f.Result
	}

	b := stdlib.Lookup(e.Fun.Name)
	if b == nil {
		c.errorf(e.Pos(), "undefined function %s", e.Fun.Name)
		for _, a := range e.Args {
			c.checkExpr(a)
		}
		return nil
	}
	e.IsBuiltin = true
	e.Builtin = b.ID
	argTypes := make([]*types.Type, len(e.Args))
	for i, a := range e.Args {
		argTypes[i] = c.checkExpr(a)
		if argTypes[i] == nil {
			return nil // error already reported inside the argument
		}
	}
	result, err := b.Signature(argTypes)
	if err != nil {
		c.errorf(e.Pos(), "%s: %v", b.Name, err)
		return nil
	}
	e.SetType(result)
	return result
}
