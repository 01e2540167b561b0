// Package ast declares the abstract syntax tree of the Tetra language.
//
// The parser produces one *Program per source file. Nodes carry source
// positions for diagnostics, and slots filled in by the checker
// (internal/check) that later stages — the tree-walking interpreter and the
// bytecode compiler — rely on: resolved variable references, inferred static
// types, and builtin bindings.
package ast

import (
	"repro/internal/token"
	"repro/internal/types"
)

// Node is implemented by every AST node.
type Node interface {
	Pos() token.Pos
}

// Program is a parsed Tetra source file: a sequence of function definitions.
type Program struct {
	File  string
	Funcs []*FuncDecl

	// FuncIndex maps function name to its index in Funcs. Filled by the
	// checker.
	FuncIndex map[string]int
	// LockNames is the set of distinct lock-block names in the program, in
	// first-appearance order. Lock names live in their own namespace
	// (paper §II); the runtime allocates one mutex per name. Filled by the
	// checker.
	LockNames []string
}

// Pos returns the position of the first function, or the zero position for
// an empty program.
func (p *Program) Pos() token.Pos {
	if len(p.Funcs) > 0 {
		return p.Funcs[0].Pos()
	}
	return token.Pos{File: p.File}
}

// Lookup returns the declared function with the given name, or nil.
func (p *Program) Lookup(name string) *FuncDecl {
	if p.FuncIndex != nil {
		if i, ok := p.FuncIndex[name]; ok {
			return p.Funcs[i]
		}
		return nil
	}
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// FuncDecl is a function definition.
//
//	def name(p1 T1, p2 T2) RT:
//	    body
type FuncDecl struct {
	NamePos token.Pos
	Name    string
	Params  []*Param
	Result  *types.Type // nil for void functions
	Body    *Block

	// NumSlots is the number of local-variable slots (including parameters)
	// in the function's frame. Filled by the checker.
	NumSlots int
	// HasParallel reports whether the body contains any parallel construct
	// (parallel, background, parallel for). When false the function's frame
	// is provably thread-private and the interpreter may use unlocked cell
	// access. Filled by the checker.
	HasParallel bool
	// SlotNames maps frame slots to variable names, for the debugger's
	// variable display. Filled by the checker.
	SlotNames []string
	// SlotTypes maps frame slots to their static types, for code
	// generators. Filled by the checker.
	SlotTypes []*types.Type
	// ZeroSlots lists the slots a path may read before any assignment to
	// them has run: locals first assigned inside a nested block and loop
	// induction variables (the loop may run zero times). Every backend
	// starts exactly these at the zero value of their static type, so a
	// value's kind always matches its variable's type. Filled by the
	// checker, in slot order.
	ZeroSlots []int
}

func (f *FuncDecl) Pos() token.Pos { return f.NamePos }

// Param is a single declared parameter. Parameters require explicit types
// (paper §II); only local variables are inferred.
type Param struct {
	NamePos token.Pos
	Name    string
	Type    *types.Type
	Slot    int // frame slot; filled by the checker
}

func (p *Param) Pos() token.Pos { return p.NamePos }

// Block is an indented statement list.
type Block struct {
	Colon token.Pos // position of the ':' introducing the block
	Stmts []Stmt
}

func (b *Block) Pos() token.Pos { return b.Colon }

// Stmt is implemented by all statement nodes.
type Stmt interface {
	Node
	stmtNode()
}

// ExprStmt is an expression evaluated for its side effects (a call).
type ExprStmt struct {
	X Expr
}

// AssignStmt is a plain or augmented assignment to a variable or an array
// element. For Op == token.ASSIGN the statement may introduce a new local
// variable (type inference); augmented forms require an existing target.
type AssignStmt struct {
	Target Expr // *Ident or *IndexExpr
	OpPos  token.Pos
	Op     token.Kind // ASSIGN, PLUSASSIGN, ...
	Value  Expr

	// Define is true when this assignment introduces the target variable.
	// Filled by the checker.
	Define bool
}

// IfStmt is an if/elif/else chain. Elif chains are desugared by the parser
// into nested IfStmts in Else.
type IfStmt struct {
	IfPos token.Pos
	Cond  Expr
	Then  *Block
	Else  *Block // nil if absent; an elif becomes a Block with a single IfStmt
}

// WhileStmt is a while loop.
type WhileStmt struct {
	WhilePos token.Pos
	Cond     Expr
	Body     *Block
}

// ForStmt is a sequential for-in loop over an array or string.
type ForStmt struct {
	ForPos token.Pos
	Var    *Ident
	Seq    Expr
	Body   *Block
}

// ParallelForStmt is `parallel for v in seq:` — each iteration may execute
// in its own thread with a private copy of the induction variable
// (paper §II, §IV).
type ParallelForStmt struct {
	ParPos token.Pos
	Var    *Ident
	Seq    Expr
	Body   *Block
}

// ParallelStmt is a fork-join block: each child statement runs in its own
// thread and the block waits for all of them (paper §II).
type ParallelStmt struct {
	ParPos token.Pos
	Body   *Block
}

// BackgroundStmt launches each child statement in its own thread without
// joining (paper §II).
type BackgroundStmt struct {
	BgPos token.Pos
	Body  *Block
}

// LockStmt is a named critical section. All lock blocks sharing a name are
// mutually exclusive (paper §II).
type LockStmt struct {
	LockPos token.Pos
	Name    string
	Body    *Block

	// LockIndex is the index into Program.LockNames. Filled by the checker.
	LockIndex int
}

// ReturnStmt returns from the enclosing function.
type ReturnStmt struct {
	RetPos token.Pos
	Value  Expr // nil for bare return
}

// BreakStmt exits the innermost loop.
type BreakStmt struct {
	BrPos token.Pos
}

// ContinueStmt continues the innermost loop.
type ContinueStmt struct {
	ContPos token.Pos
}

// PassStmt does nothing; it exists so empty blocks can be written.
type PassStmt struct {
	PassPos token.Pos
}

func (*ExprStmt) stmtNode()        {}
func (*AssignStmt) stmtNode()      {}
func (*IfStmt) stmtNode()          {}
func (*WhileStmt) stmtNode()       {}
func (*ForStmt) stmtNode()         {}
func (*ParallelForStmt) stmtNode() {}
func (*ParallelStmt) stmtNode()    {}
func (*BackgroundStmt) stmtNode()  {}
func (*LockStmt) stmtNode()        {}
func (*ReturnStmt) stmtNode()      {}
func (*BreakStmt) stmtNode()       {}
func (*ContinueStmt) stmtNode()    {}
func (*PassStmt) stmtNode()        {}

func (s *ExprStmt) Pos() token.Pos        { return s.X.Pos() }
func (s *AssignStmt) Pos() token.Pos      { return s.Target.Pos() }
func (s *IfStmt) Pos() token.Pos          { return s.IfPos }
func (s *WhileStmt) Pos() token.Pos       { return s.WhilePos }
func (s *ForStmt) Pos() token.Pos         { return s.ForPos }
func (s *ParallelForStmt) Pos() token.Pos { return s.ParPos }
func (s *ParallelStmt) Pos() token.Pos    { return s.ParPos }
func (s *BackgroundStmt) Pos() token.Pos  { return s.BgPos }
func (s *LockStmt) Pos() token.Pos        { return s.LockPos }
func (s *ReturnStmt) Pos() token.Pos      { return s.RetPos }
func (s *BreakStmt) Pos() token.Pos       { return s.BrPos }
func (s *ContinueStmt) Pos() token.Pos    { return s.ContPos }
func (s *PassStmt) Pos() token.Pos        { return s.PassPos }

// Expr is implemented by all expression nodes. After checking, Type reports
// the expression's static type.
type Expr interface {
	Node
	exprNode()
	Type() *types.Type
}

// typed is embedded in every expression node to hold the checker-assigned
// static type.
type typed struct {
	T *types.Type
}

// Type returns the static type assigned by the checker (nil before
// checking, or for void calls).
func (t *typed) Type() *types.Type { return t.T }

// SetType records the expression's static type. It is exported for the
// checker.
func (t *typed) SetType(tt *types.Type) { t.T = tt }

// IntLit is an integer literal.
type IntLit struct {
	typed
	LitPos token.Pos
	Value  int64
}

// RealLit is a floating-point literal.
type RealLit struct {
	typed
	LitPos token.Pos
	Value  float64
	// Text preserves the source spelling for exact pretty-printing.
	Text string
}

// StringLit is a string literal (value already unescaped).
type StringLit struct {
	typed
	LitPos token.Pos
	Value  string
}

// BoolLit is true or false.
type BoolLit struct {
	typed
	LitPos token.Pos
	Value  bool
}

// Ident is a variable reference (or definition target).
type Ident struct {
	typed
	NamePos token.Pos
	Name    string

	// Slot is the frame slot this name resolves to. Filled by the checker.
	Slot int
}

// ArrayLit is [e1, e2, ...]. An empty literal [] is only legal where its
// type can be inferred from context; the checker reports it otherwise.
type ArrayLit struct {
	typed
	Lbrack token.Pos
	Elems  []Expr
}

// RangeLit is the inclusive range [lo .. hi], which evaluates to an array
// of ints (the paper's `[1 .. 100]`).
type RangeLit struct {
	typed
	Lbrack token.Pos
	Lo, Hi Expr
}

// UnaryExpr is -x or not x.
type UnaryExpr struct {
	typed
	OpPos token.Pos
	Op    token.Kind // MINUS or NOT
	X     Expr
}

// BinaryExpr is a binary operation. And/or short-circuit.
type BinaryExpr struct {
	typed
	Op    token.Kind
	OpPos token.Pos
	X, Y  Expr
}

// IndexExpr is a[i].
type IndexExpr struct {
	typed
	X      Expr
	Lbrack token.Pos
	Index  Expr
}

// CallExpr is f(args...), where f is a declared function or a builtin.
type CallExpr struct {
	typed
	Fun    *Ident
	Lparen token.Pos
	Args   []Expr

	// Exactly one of the following is set by the checker.
	FuncIndex int  // index into Program.Funcs, or -1
	Builtin   int  // builtin id (internal/stdlib), or -1
	IsBuiltin bool // selects which of the above applies
}

func (*IntLit) exprNode()     {}
func (*RealLit) exprNode()    {}
func (*StringLit) exprNode()  {}
func (*BoolLit) exprNode()    {}
func (*Ident) exprNode()      {}
func (*ArrayLit) exprNode()   {}
func (*RangeLit) exprNode()   {}
func (*UnaryExpr) exprNode()  {}
func (*BinaryExpr) exprNode() {}
func (*IndexExpr) exprNode()  {}
func (*CallExpr) exprNode()   {}

func (e *IntLit) Pos() token.Pos     { return e.LitPos }
func (e *RealLit) Pos() token.Pos    { return e.LitPos }
func (e *StringLit) Pos() token.Pos  { return e.LitPos }
func (e *BoolLit) Pos() token.Pos    { return e.LitPos }
func (e *Ident) Pos() token.Pos      { return e.NamePos }
func (e *ArrayLit) Pos() token.Pos   { return e.Lbrack }
func (e *RangeLit) Pos() token.Pos   { return e.Lbrack }
func (e *UnaryExpr) Pos() token.Pos  { return e.OpPos }
func (e *BinaryExpr) Pos() token.Pos { return e.X.Pos() }
func (e *IndexExpr) Pos() token.Pos  { return e.X.Pos() }
func (e *CallExpr) Pos() token.Pos   { return e.Fun.Pos() }
