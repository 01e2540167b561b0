package check

import "repro/internal/ast"

// shareSlots decides which of f's variables its threads really share, and
// so must be cells (ast.FuncDecl.Shared); it returns nil when none is. The
// paper gives each thread a private symbol table and a shared one; a
// variable belongs in the shared one only if a thread body — a parallel
// arm, a background statement, a parallel-for body — mentions it and it is
// written while such a body may run:
//
//   - inside a thread body, or
//   - by the spawning function after a background statement that mentions
//     it (in a loop around the background statement, anywhere in the loop).
//
// Everything else is private, and every engine keeps it where it keeps a
// flat function's variables. A body reads a private variable from a copy
// taken when it is spawned, which is exact: nothing writes the variable
// while the body may run. `parallel` and `parallel for` join before their
// statement completes, so a write after them is not concurrent, and a
// write before a spawn is what the copy holds. A parallel-for binding is
// not a write either: each iteration gets its own induction variable.
// Arrays are references, so what is copied is the reference, and element
// writes stay visible to every thread.
func shareSlots(f *ast.FuncDecl) []bool {
	if !f.HasParallel {
		return nil
	}
	s := &sharing{
		mentioned: make([]bool, f.NumSlots),
		written:   make([]bool, f.NumSlots),
		bgLive:    make([]bool, f.NumSlots),
	}
	s.block(f.Body)
	var shared []bool
	for slot, m := range s.mentioned {
		if m && s.written[slot] {
			if shared == nil {
				shared = make([]bool, f.NumSlots)
			}
			shared[slot] = true
		}
	}
	return shared
}

// sharing is the state of one function's walk, in program order.
type sharing struct {
	inBody    int    // thread bodies around the statement being walked
	mentioned []bool // named inside some thread body
	written   []bool // written inside a thread body, or while a background body that mentions it may run
	bgLive    []bool // mentioned by a background body that may be running here
}

func (s *sharing) block(b *ast.Block) {
	for _, st := range b.Stmts {
		s.stmt(st)
	}
}

// body walks a thread body.
func (s *sharing) body(b *ast.Block) {
	s.inBody++
	s.block(b)
	s.inBody--
}

func (s *sharing) mention(slot int) {
	if s.inBody > 0 {
		s.mentioned[slot] = true
	}
}

func (s *sharing) write(slot int) {
	s.mention(slot)
	if s.inBody > 0 || s.bgLive[slot] {
		s.written[slot] = true
	}
}

func (s *sharing) stmt(st ast.Stmt) {
	switch st := st.(type) {
	case *ast.ExprStmt:
		s.expr(st.X)
	case *ast.AssignStmt:
		s.expr(st.Value)
		switch t := st.Target.(type) {
		case *ast.Ident:
			s.write(t.Slot)
		default:
			s.expr(t) // an element write reads the array and the index
		}
	case *ast.IfStmt:
		s.expr(st.Cond)
		s.block(st.Then)
		if st.Else != nil {
			s.block(st.Else)
		}
	case *ast.WhileStmt:
		s.loop(st.Body)
		s.expr(st.Cond)
		s.block(st.Body)
	case *ast.ForStmt:
		s.loop(st.Body)
		s.expr(st.Seq)
		s.write(st.Var.Slot)
		s.block(st.Body)
	case *ast.ParallelForStmt:
		s.expr(st.Seq)
		s.body(st.Body)
		st.Spawns = spawns(st.Body)
	case *ast.ParallelStmt:
		s.body(st.Body)
	case *ast.BackgroundStmt:
		s.body(st.Body)
		backgroundMentions(st, s.bgLive)
	case *ast.LockStmt:
		s.block(st.Body)
	case *ast.ReturnStmt:
		if st.Value != nil {
			s.expr(st.Value)
		}
	}
}

// loop marks, before a loop body is walked, what the background statements
// inside it mention: the next iteration's writes run while they may.
func (s *sharing) loop(b *ast.Block) {
	eachStmt(b, func(st ast.Stmt) {
		if bg, ok := st.(*ast.BackgroundStmt); ok {
			backgroundMentions(bg, s.bgLive)
		}
	})
}

func (s *sharing) expr(e ast.Expr) {
	eachIdent(e, func(id *ast.Ident) { s.mention(id.Slot) })
}

// backgroundMentions marks in into every slot bg's body names.
func backgroundMentions(bg *ast.BackgroundStmt, into []bool) {
	n := len(into)
	m := &sharing{inBody: 1, mentioned: into, written: make([]bool, n), bgLive: make([]bool, n)}
	m.block(bg.Body)
}

// spawns reports whether b, nested blocks included, holds a parallel
// construct.
func spawns(b *ast.Block) bool {
	found := false
	eachStmt(b, func(st ast.Stmt) {
		switch st.(type) {
		case *ast.ParallelStmt, *ast.BackgroundStmt, *ast.ParallelForStmt:
			found = true
		}
	})
	return found
}

// eachStmt calls fn on every statement of b, nested ones included, in
// program order.
func eachStmt(b *ast.Block, fn func(ast.Stmt)) {
	for _, st := range b.Stmts {
		fn(st)
		switch st := st.(type) {
		case *ast.IfStmt:
			eachStmt(st.Then, fn)
			if st.Else != nil {
				eachStmt(st.Else, fn)
			}
		case *ast.WhileStmt:
			eachStmt(st.Body, fn)
		case *ast.ForStmt:
			eachStmt(st.Body, fn)
		case *ast.ParallelForStmt:
			eachStmt(st.Body, fn)
		case *ast.ParallelStmt:
			eachStmt(st.Body, fn)
		case *ast.BackgroundStmt:
			eachStmt(st.Body, fn)
		case *ast.LockStmt:
			eachStmt(st.Body, fn)
		}
	}
}

// eachIdent calls fn on every variable reference in e.
func eachIdent(e ast.Expr, fn func(*ast.Ident)) {
	switch e := e.(type) {
	case *ast.Ident:
		fn(e)
	case *ast.ArrayLit:
		for _, el := range e.Elems {
			eachIdent(el, fn)
		}
	case *ast.RangeLit:
		eachIdent(e.Lo, fn)
		eachIdent(e.Hi, fn)
	case *ast.UnaryExpr:
		eachIdent(e.X, fn)
	case *ast.BinaryExpr:
		eachIdent(e.X, fn)
		eachIdent(e.Y, fn)
	case *ast.IndexExpr:
		eachIdent(e.X, fn)
		eachIdent(e.Index, fn)
	case *ast.CallExpr:
		for _, a := range e.Args {
			eachIdent(a, fn)
		}
	}
}
