package lint

import (
	"fmt"
	"go/ast"
	"go/token"
)

// slotBalance checks the ReqPump's slot accounting invariant (Section
// 4.1 of the paper: "one counter to monitor the total number of active
// requests, and one counter for each external destination"). Every
// execution token acquired in internal/async — via grabTokenLocked, a
// successful acquireToken, or a true tryAcquireToken — must, on every
// control-flow path, be either released (releaseToken, or dropTokenLocked
// inside a completion's critical section) or handed off to a
// function/goroutine that releases it. A leaked token permanently
// shrinks the pump's concurrency budget; the race detector cannot see
// it because nothing races — the pump just quietly starves.
//
// The analysis is an abstract interpretation over the structured AST:
// one boolean of state ("a token is held"), branch joins that keep a
// path holding, and an interprocedural may-release summary computed as
// a fixed point over the package (so `go p.run(c)` counts as a handoff
// because run -> execute -> complete eventually releases).
type slotBalance struct {
	acquireUncond map[string]bool // acquire that cannot fail
	acquireErr    map[string]bool // acquire returning error (nil => held)
	acquireTry    map[string]bool // acquire returning bool (true => held)
	release       map[string]bool
}

func newSlotBalance() *slotBalance {
	return &slotBalance{
		acquireUncond: map[string]bool{"grabTokenLocked": true},
		acquireErr:    map[string]bool{"acquireToken": true},
		acquireTry:    map[string]bool{"tryAcquireToken": true},
		release:       map[string]bool{"releaseToken": true, "dropTokenLocked": true},
	}
}

func (*slotBalance) Name() string { return "slotbalance" }

func (*slotBalance) Doc() string {
	return "every pump slot acquired in internal/async must be released or handed off on all control-flow paths"
}

func (r *slotBalance) Check(pkg *Package) []Diagnostic {
	if !pathMatch(pkg.Path, "internal/async") {
		return nil
	}
	releasers := r.releaserSummary(pkg)
	var diags []Diagnostic
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			name := fd.Name.Name
			// The primitives themselves legitimately end while holding or
			// after dropping a token; only their callers are checked.
			if r.acquireUncond[name] || r.acquireErr[name] || r.acquireTry[name] || r.release[name] {
				continue
			}
			w := &sbWalker{rule: r, pkg: pkg, releasers: releasers, fname: name}
			w.local = localReleasers(fd.Body, func(n ast.Node) bool { return w.releasesShallow(n) })
			st := w.block(fd.Body.List, sbState{})
			w.checkExit(fd.Body.End(), st)
			diags = append(diags, w.diags...)
			// Function literals are their own accounting scopes.
			for _, lit := range funcLits(fd.Body) {
				lw := &sbWalker{rule: r, pkg: pkg, releasers: releasers, fname: name + " (func literal)", local: w.local}
				lst := lw.block(lit.Body.List, sbState{})
				lw.checkExit(lit.Body.End(), lst)
				diags = append(diags, lw.diags...)
			}
		}
	}
	return diags
}

// releaserSummary computes, by name, which package functions may release
// a token — directly or by calling (possibly in a goroutine) another
// releasing function. Names are enough inside one package: the pump's
// helpers are unexported and unambiguous.
func (r *slotBalance) releaserSummary(pkg *Package) map[string]bool {
	releasers := make(map[string]bool)
	for name := range r.release {
		releasers[name] = true
	}
	bodies := make(map[string]*ast.BlockStmt)
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				bodies[fd.Name.Name] = fd.Body
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for name, body := range bodies {
			if releasers[name] {
				continue
			}
			calls := false
			ast.Inspect(body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if _, callee := callee(call); releasers[callee] {
						calls = true
					}
				}
				return !calls
			})
			if calls {
				releasers[name] = true
				changed = true
			}
		}
	}
	return releasers
}

// localReleasers finds closures assigned to local names whose bodies
// release (launch := func(...) { ... releaseToken ... }); calling such a
// name is a handoff.
func localReleasers(body *ast.BlockStmt, releases func(ast.Node) bool) map[string]bool {
	out := make(map[string]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Lhs) != len(assign.Rhs) {
			return true
		}
		for i := range assign.Lhs {
			id, ok := assign.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			lit, ok := assign.Rhs[i].(*ast.FuncLit)
			if !ok {
				continue
			}
			// The closure's own nested literals count here: a closure that
			// spawns a releasing goroutine is itself a handoff target.
			found := false
			ast.Inspect(lit.Body, func(c ast.Node) bool {
				if releases(c) {
					found = true
				}
				return !found
			})
			if found {
				out[id.Name] = true
			}
		}
		return true
	})
	return out
}

// sbState is the abstract state: whether the current path holds an
// unbalanced token, and where it was acquired.
type sbState struct {
	held       bool
	heldPos    token.Pos
	terminated bool
}

type sbWalker struct {
	rule      *slotBalance
	pkg       *Package
	releasers map[string]bool
	local     map[string]bool
	fname     string
	deferRel  bool
	diags     []Diagnostic
}

func (w *sbWalker) checkExit(at token.Pos, st sbState) {
	if st.terminated || !st.held || w.deferRel {
		return
	}
	w.diags = append(w.diags, Diagnostic{
		Pos:  w.pkg.Position(at),
		Rule: w.rule.Name(),
		Message: fmt.Sprintf("in %s: pump slot acquired at %v is not released or handed off on this path",
			w.fname, w.pkg.Position(st.heldPos)),
	})
}

// releasesShallow reports whether node n is a call that releases or
// hands off a token (release primitive, releasing package function, or
// releasing local closure). It does not descend anywhere.
func (w *sbWalker) releasesShallow(n ast.Node) bool {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return false
	}
	recv, name := callee(call)
	if w.releasers[name] || w.local[name] {
		return true
	}
	_ = recv
	return false
}

// scanEffects applies a statement's token effects (excluding nested
// function literals) to st: acquires first, then releases, matching
// source order closely enough for straight-line statements.
func (w *sbWalker) scanEffects(n ast.Node, st sbState) sbState {
	inspectShallow(n, func(c ast.Node) bool {
		call, ok := c.(*ast.CallExpr)
		if !ok {
			return true
		}
		_, name := callee(call)
		switch {
		case w.rule.acquireUncond[name]:
			st.held, st.heldPos = true, call.Pos()
		case w.rule.acquireErr[name] || w.rule.acquireTry[name]:
			// Outside the recognized if-patterns, conservatively assume
			// the acquire succeeded.
			st.held, st.heldPos = true, call.Pos()
		case w.releasers[name] || w.local[name]:
			st.held = false
		}
		return true
	})
	return st
}

// findCall returns the first shallow call whose name satisfies pred.
func findCall(n ast.Node, pred func(string) bool) *ast.CallExpr {
	var found *ast.CallExpr
	inspectShallow(n, func(c ast.Node) bool {
		if found != nil {
			return false
		}
		if call, ok := c.(*ast.CallExpr); ok {
			if _, name := callee(call); pred(name) {
				found = call
			}
		}
		return true
	})
	return found
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
		w.checkExit(x.Pos(), st)
		st.terminated = true
		return st

	case *ast.BlockStmt:
		return w.block(x.List, st)

	case *ast.IfStmt:
		return w.ifStmt(x, st)

	case *ast.GoStmt:
		// A goroutine whose function releases is a handoff. Check both
		// named targets (go p.run(c)) and literals (go func() { ... }()).
		if w.releasesShallow(x.Call) {
			st.held = false
			return st
		}
		if lit, ok := x.Call.Fun.(*ast.FuncLit); ok {
			released := false
			ast.Inspect(lit.Body, func(c ast.Node) bool {
				if w.releasesShallow(c) {
					released = true
				}
				return !released
			})
			if released {
				st.held = false
			}
		}
		return st

	case *ast.DeferStmt:
		if w.releasesShallow(x.Call) {
			w.deferRel = true
			return st
		}
		if lit, ok := x.Call.Fun.(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(c ast.Node) bool {
				if w.releasesShallow(c) {
					w.deferRel = true
					return false
				}
				return true
			})
		}
		return st

	case *ast.ForStmt:
		if x.Init != nil {
			st = w.stmt(x.Init, st)
		}
		body := w.block(x.Body.List, st)
		return sbJoin(st, body)

	case *ast.RangeStmt:
		body := w.block(x.Body.List, st)
		return sbJoin(st, body)

	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return w.branches(s, st)

	case *ast.LabeledStmt:
		return w.stmt(x.Stmt, st)

	case *ast.BranchStmt:
		// break/continue/goto leave the linear path; treat as terminated
		// for join purposes (holding a token across an iteration boundary
		// is outside the supported shapes and flagged at function exit).
		st.terminated = true
		return st

	default:
		// Assignments, expressions, sends, declarations.
		return w.scanEffects(s, st)
	}
}

// ifStmt understands the two conditional-acquire idioms in addition to
// plain branching:
//
//	if err := p.acquireToken(c); err != nil { ... }  // held on fallthrough
//	if p.tryAcquireToken(dest) { ... }               // held in then-branch
func (w *sbWalker) ifStmt(x *ast.IfStmt, st sbState) sbState {
	isErrAcquire := func(name string) bool { return w.rule.acquireErr[name] }
	isTryAcquire := func(name string) bool { return w.rule.acquireTry[name] }

	// Pattern: init acquired via the error-returning primitive and cond
	// tests the error: the token is held exactly on the err == nil side.
	if x.Init != nil {
		if call := findCall(x.Init, isErrAcquire); call != nil {
			if _, op, ok := nilComparison(x.Cond); ok {
				okSt := st
				okSt.held, okSt.heldPos = true, call.Pos()
				thenEntry, fallEntry := st, okSt // err != nil: then runs token-less
				if op == token.EQL {
					thenEntry, fallEntry = okSt, st // err == nil: then holds it
				}
				thenSt := w.block(x.Body.List, thenEntry)
				if x.Else != nil {
					return sbJoin(thenSt, w.stmt(x.Else, fallEntry))
				}
				return sbJoin(thenSt, fallEntry)
			}
		}
	}
	// Pattern: if p.tryAcquireToken(d) { ... } — token held only inside.
	if call := findCall(x.Cond, isTryAcquire); call != nil {
		thenSt := st
		thenSt.held, thenSt.heldPos = true, call.Pos()
		thenSt = w.block(x.Body.List, thenSt)
		elseSt := st
		if x.Else != nil {
			elseSt = w.stmt(x.Else, elseSt)
		}
		return sbJoin(thenSt, elseSt)
	}

	// Plain branching.
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
}

// branches joins the bodies of switch/select statements. A switch with
// no default can skip every case, so the entry state joins in; a select
// with no default blocks until some comm clause runs, so it does not.
func (w *sbWalker) branches(s ast.Stmt, st sbState) sbState {
	var clauses []ast.Stmt
	hasDefault := false
	switch x := s.(type) {
	case *ast.SwitchStmt:
		if x.Init != nil {
			st = w.stmt(x.Init, st)
		}
		clauses = x.Body.List
	case *ast.TypeSwitchStmt:
		clauses = x.Body.List
	case *ast.SelectStmt:
		hasDefault = true // never join the entry state around a select
		clauses = x.Body.List
	}
	out := sbState{terminated: true}
	for _, c := range clauses {
		var body []ast.Stmt
		branchSt := st
		switch cc := c.(type) {
		case *ast.CaseClause:
			if cc.List == nil {
				hasDefault = true
			}
			body = cc.Body
		case *ast.CommClause:
			if cc.Comm == nil {
				hasDefault = true
			} else {
				branchSt = w.scanEffects(cc.Comm, branchSt)
			}
			body = cc.Body
		}
		out = sbJoin(out, w.block(body, branchSt))
	}
	if !hasDefault {
		out = sbJoin(out, st)
	}
	return out
}
