package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// slotBalance checks the ReqPump's slot accounting invariant (Section
// 4.1 of the paper: "one counter to monitor the total number of active
// requests, and one counter for each external destination"). Every
// execution token taken in internal/async (grabTokenLocked) must, on
// every control-flow path, be either given back (dropTokenLocked, in the
// completion's critical section) or handed off with the execution that
// holds it: an `execution` value started by a `go` statement, sent on a
// channel to a parked goroutine, or returned to a caller that runs it. A
// send in a select's comm clause hands off on that clause only; the
// default clause beside it must hand off on its own. A leaked token
// permanently shrinks the pump's concurrency budget; the race detector
// cannot see it because nothing races — the pump just quietly starves.
//
// The analysis is an abstract interpretation over the structured AST:
// one boolean of state ("a token is held") and branch joins that keep a
// path holding. A loop whose body can reach its back edge holding a token
// is walked a second time from that state, where the next iteration's
// acquire meets the token the last one kept.
type slotBalance struct{}

const (
	sbAcquire = "grabTokenLocked"
	sbRelease = "dropTokenLocked"
	sbCarrier = "execution" // the type whose values carry a token away
)

func newSlotBalance() *slotBalance { return &slotBalance{} }

func (*slotBalance) Name() string { return "slotbalance" }

func (*slotBalance) Doc() string {
	return "every pump slot acquired in internal/async must be released or handed off with its execution on all control-flow paths"
}

func (r *slotBalance) Check(prog *Program) []Diagnostic {
	var diags []Diagnostic
	seen := make(map[Diagnostic]bool)
	for _, fi := range prog.Funcs {
		name := fi.Decl.Name.Name
		// The primitives themselves legitimately end while holding or
		// after dropping a token; only their callers are checked.
		if !pathMatch(fi.Pkg.Path, "internal/async") || name == sbAcquire || name == sbRelease {
			continue
		}
		// The declaration's body and every function literal under it are
		// separate accounting scopes.
		scopes := []*ast.BlockStmt{fi.Decl.Body}
		for _, lit := range funcLits(fi.Decl.Body) {
			scopes = append(scopes, lit.Body)
		}
		for i, body := range scopes {
			fname := name
			if i > 0 {
				fname += " (func literal)"
			}
			w := &sbWalker{rule: r, pkg: fi.Pkg, fname: fname}
			w.checkExit(body.End(), w.block(body.List, sbState{}))
			for _, d := range w.diags {
				if !seen[d] {
					seen[d] = true
					diags = append(diags, d)
				}
			}
		}
	}
	return diags
}

// sbState is the abstract state: whether the current path holds an
// unbalanced token, and where it was acquired.
type sbState struct {
	held       bool
	heldPos    token.Pos
	terminated bool
}

type sbWalker struct {
	rule     *slotBalance
	pkg      *Package
	fname    string
	backEdge sbState // join of the innermost loop's continue states
	diags    []Diagnostic
}

func (w *sbWalker) report(at token.Pos, st sbState, what string) {
	w.diags = append(w.diags, Diagnostic{
		Pos:     w.pkg.Position(at),
		Rule:    w.rule.Name(),
		Message: fmt.Sprintf("in %s: pump slot acquired at %v %s", w.fname, w.pkg.Position(st.heldPos), what),
	})
}

func (w *sbWalker) checkExit(at token.Pos, st sbState) {
	if !st.terminated && st.held {
		w.report(at, st, "is not released or handed off on this path")
	}
}

// scanEffects applies a statement's token effects (excluding nested
// function literals) to st in source order.
func (w *sbWalker) scanEffects(n ast.Node, st sbState) sbState {
	inspectShallow(n, func(c ast.Node) bool {
		call, ok := c.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch _, name := callee(call); name {
		case sbAcquire:
			if st.held {
				w.report(call.Pos(), st, "is still held when this call acquires another; the pump can never get the first one back")
			}
			st.held, st.heldPos = true, call.Pos()
		case sbRelease:
			st.held = false
		}
		return true
	})
	return st
}

// carries reports whether any of exprs is an execution — not the empty
// literal `execution{}`, which runs nothing: the token leaves with it.
func (w *sbWalker) carries(exprs []ast.Expr) bool {
	if w.pkg.Info == nil {
		return false
	}
	for _, e := range exprs {
		if lit, ok := e.(*ast.CompositeLit); ok && len(lit.Elts) == 0 {
			continue
		}
		named, _ := w.pkg.Info.TypeOf(e).(*types.Named)
		if isNamedType(named, "internal/async", sbCarrier) {
			return true
		}
	}
	return false
}

func sbJoin(a, b sbState) sbState {
	if a.terminated {
		return b
	}
	if b.terminated {
		return a
	}
	out := sbState{held: a.held || b.held}
	if a.held {
		out.heldPos = a.heldPos
	} else {
		out.heldPos = b.heldPos
	}
	return out
}

func (w *sbWalker) block(list []ast.Stmt, st sbState) sbState {
	for _, s := range list {
		if st.terminated {
			// Unreachable code after return: stop tracking.
			return st
		}
		st = w.stmt(s, st)
	}
	return st
}

func (w *sbWalker) stmt(s ast.Stmt, st sbState) sbState {
	switch x := s.(type) {
	case *ast.ReturnStmt:
		st = w.scanEffects(x, st)
		if w.carries(x.Results) {
			st.held = false // the caller runs the execution
		}
		w.checkExit(x.Pos(), st)
		st.terminated = true
		return st

	case *ast.GoStmt:
		st = w.scanEffects(x, st)
		if w.carries(x.Call.Args) {
			st.held = false // the new goroutine runs the execution
		}
		return st

	case *ast.SendStmt:
		st = w.scanEffects(x, st)
		if w.carries([]ast.Expr{x.Value}) {
			st.held = false // the receiving goroutine runs the execution
		}
		return st

	case *ast.SelectStmt:
		return w.comms(x.Body, st)

	case *ast.BlockStmt:
		return w.block(x.List, st)

	case *ast.IfStmt:
		if x.Init != nil {
			st = w.stmt(x.Init, st)
		}
		st = w.scanEffects(x.Cond, st)
		thenSt := w.block(x.Body.List, st)
		elseSt := st
		if x.Else != nil {
			elseSt = w.stmt(x.Else, st)
		}
		return sbJoin(thenSt, elseSt)

	case *ast.ForStmt:
		if x.Init != nil {
			st = w.stmt(x.Init, st)
		}
		return w.loop(x.Body, st)

	case *ast.RangeStmt:
		return w.loop(x.Body, st)

	case *ast.SwitchStmt:
		if x.Init != nil {
			st = w.stmt(x.Init, st)
		}
		return w.cases(x.Body, st)

	case *ast.TypeSwitchStmt:
		return w.cases(x.Body, st)

	case *ast.LabeledStmt:
		return w.stmt(x.Stmt, st)

	case *ast.BranchStmt:
		// continue carries its state to the loop's back edge; break and
		// goto leave the linear path and their state is dropped (a token
		// carried out of a loop by break is outside the supported shapes).
		if x.Tok == token.CONTINUE {
			w.backEdge = sbJoin(w.backEdge, st)
		}
		st.terminated = true
		return st

	default:
		// Assignments, expressions, declarations, defers.
		return w.scanEffects(s, st)
	}
}

// loop walks a loop body from the entry state and, when some path reaches
// the back edge holding a token the entry did not, once more from there:
// that walk is where an acquire meets the token the last iteration kept.
func (w *sbWalker) loop(body *ast.BlockStmt, st sbState) sbState {
	outer := w.backEdge
	w.backEdge = sbState{terminated: true}
	back := sbJoin(w.block(body.List, st), w.backEdge)
	if back.held && !st.held {
		w.block(body.List, back)
	}
	w.backEdge = outer
	return sbJoin(st, back)
}

// cases joins the clauses of a switch. One with no default can skip every
// case, so the entry state joins in.
func (w *sbWalker) cases(body *ast.BlockStmt, st sbState) sbState {
	out, hasDefault := sbState{terminated: true}, false
	for _, c := range body.List {
		cc := c.(*ast.CaseClause)
		hasDefault = hasDefault || cc.List == nil
		out = sbJoin(out, w.block(cc.Body, st))
	}
	if !hasDefault {
		out = sbJoin(out, st)
	}
	return out
}

// comms joins the clauses of a select. Exactly one clause runs — its comm
// first, then its body — so, unlike a switch, the entry state does not
// join in: with no default the select waits for a comm.
func (w *sbWalker) comms(body *ast.BlockStmt, st sbState) sbState {
	out := sbState{terminated: true}
	for _, c := range body.List {
		cc := c.(*ast.CommClause)
		clause := st
		if cc.Comm != nil {
			clause = w.stmt(cc.Comm, clause)
		}
		out = sbJoin(out, w.block(cc.Body, clause))
	}
	return out
}
