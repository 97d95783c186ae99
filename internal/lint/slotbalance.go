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
// a fixed point over the call graph (so `go p.run(c)` counts as a handoff
// because run -> execute -> complete eventually releases). Two refinements
// keep it honest on the pump's retry loop, where the token is held or not
// according to a mode flag: a bool that is set once and tested bare (`if
// inline`) is assumed true for one walk of the function and false for
// another, so `if inline { A } ... if inline { B }` is read as the two
// paths that exist and not the four that do not; and a loop whose body
// can reach its back edge holding a token is walked a second time from
// that state, where the next iteration's acquire meets the token the last
// one kept — a leak that a may-release callee after the loop would
// otherwise hide.
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

func (r *slotBalance) Check(prog *Program) []Diagnostic {
	inScope := func(fi *FuncInfo) bool { return pathMatch(fi.Pkg.Path, "internal/async") }
	// May-release summary, by name: the pump's helpers are unexported and
	// unambiguous inside the one package in scope.
	releasers := make(map[string]bool)
	for name := range r.release {
		releasers[name] = true
	}
	prog.fixedPoint(func(fi *FuncInfo) bool {
		if !inScope(fi) || releasers[fi.Decl.Name.Name] {
			return false
		}
		for _, e := range fi.Calls {
			if _, name := callee(e.Call); releasers[name] {
				releasers[fi.Decl.Name.Name] = true
				return true
			}
		}
		return false
	})
	var diags []Diagnostic
	seen := make(map[Diagnostic]bool)
	for _, fi := range prog.Funcs {
		name := fi.Decl.Name.Name
		// The primitives themselves legitimately end while holding or
		// after dropping a token; only their callers are checked.
		if !inScope(fi) || r.acquireUncond[name] || r.acquireErr[name] || r.acquireTry[name] || r.release[name] {
			continue
		}
		local := localReleasers(fi.Decl.Body, releasers)
		// The declaration's body and every function literal under it are
		// separate accounting scopes, each walked once per assumption.
		scopes := []*ast.BlockStmt{fi.Decl.Body}
		for _, lit := range funcLits(fi.Decl.Body) {
			scopes = append(scopes, lit.Body)
		}
		for i, body := range scopes {
			fname := name
			if i > 0 {
				fname += " (func literal)"
			}
			for _, assume := range assumptions(modeFlags(fi.Decl, body)) {
				w := &sbWalker{rule: r, pkg: fi.Pkg, releasers: releasers, local: local, fname: fname, assume: assume}
				w.checkExit(body.End(), w.block(body.List, sbState{}))
				for _, d := range w.diags {
					if !seen[d] {
						seen[d] = true
						diags = append(diags, d)
					}
				}
			}
		}
	}
	return diags
}

// modeFlags returns the identifiers body tests bare (`if x`, `if !x`)
// that nothing in the declaration reassigns: parameters and variables
// defined once. Assuming a value for one cannot contradict the code.
func modeFlags(decl *ast.FuncDecl, body *ast.BlockStmt) []string {
	assigned := make(map[string]bool)
	ast.Inspect(decl, func(n ast.Node) bool {
		if x, ok := n.(*ast.AssignStmt); ok && x.Tok != token.DEFINE {
			for _, lhs := range x.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					assigned[id.Name] = true
				}
			}
		}
		return true
	})
	var flags []string
	inspectShallow(body, func(n ast.Node) bool {
		if ifs, ok := n.(*ast.IfStmt); ok {
			if name, _, ok := bareFlag(ifs.Cond); ok && !assigned[name] {
				assigned[name] = true // listed once
				flags = append(flags, name)
			}
		}
		return true
	})
	return flags
}

// bareFlag matches the conditions `x` and `!x`, returning x and the
// value of x under which the condition holds.
func bareFlag(cond ast.Expr) (name string, when bool, ok bool) {
	when = true
	cond = ast.Unparen(cond)
	if not, isNot := cond.(*ast.UnaryExpr); isNot && not.Op == token.NOT {
		cond, when = ast.Unparen(not.X), false
	}
	id, ok := cond.(*ast.Ident)
	if !ok {
		return "", false, false
	}
	return id.Name, when, true
}

// assumptions enumerates every truth assignment of flags (at most four
// of them: sixteen walks of one function).
func assumptions(flags []string) []map[string]bool {
	if len(flags) > 4 {
		flags = flags[:4]
	}
	out := make([]map[string]bool, 1<<len(flags))
	for bits := range out {
		out[bits] = make(map[string]bool, len(flags))
		for i, f := range flags {
			out[bits][f] = bits&(1<<i) != 0
		}
	}
	return out
}

// localReleasers finds closures assigned to local names whose bodies
// release (launch := func(...) { ... releaseToken ... }); calling such a
// name is a handoff.
func localReleasers(body *ast.BlockStmt, releasers map[string]bool) map[string]bool {
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
				if call, ok := c.(*ast.CallExpr); ok {
					_, name := callee(call)
					found = found || releasers[name]
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
	assume    map[string]bool // mode flags -> the value this walk assumes
	backEdge  sbState         // join of the innermost loop's continue states
	deferRel  bool
	diags     []Diagnostic
}

func (w *sbWalker) report(at token.Pos, st sbState, what string) {
	w.diags = append(w.diags, Diagnostic{
		Pos:     w.pkg.Position(at),
		Rule:    w.rule.Name(),
		Message: fmt.Sprintf("in %s: pump slot acquired at %v %s", w.fname, w.pkg.Position(st.heldPos), what),
	})
}

func (w *sbWalker) checkExit(at token.Pos, st sbState) {
	if !st.terminated && st.held && !w.deferRel {
		w.report(at, st, "is not released or handed off on this path")
	}
}

// acquire takes a token at call: a leak on the spot if one is held already.
func (w *sbWalker) acquire(st sbState, call *ast.CallExpr) sbState {
	if st.held {
		w.report(call.Pos(), st, "is still held when this call acquires another; the pump can never get the first one back")
	}
	st.held, st.heldPos = true, call.Pos()
	return st
}

// releasesShallow reports whether node n is a call that releases or
// hands off a token (release primitive, releasing package function, or
// releasing local closure). It does not descend anywhere.
func (w *sbWalker) releasesShallow(n ast.Node) bool {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return false
	}
	_, name := callee(call)
	return w.releasers[name] || w.local[name]
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
		case w.rule.acquireUncond[name] || w.rule.acquireErr[name] || w.rule.acquireTry[name]:
			// A fallible acquire outside the recognized if-patterns is
			// conservatively assumed to have succeeded.
			st = w.acquire(st, call)
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
		return w.loop(x.Body, st)

	case *ast.RangeStmt:
		return w.loop(x.Body, st)

	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return w.branches(s, st)

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
		// Assignments, expressions, sends, declarations.
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
				okSt := w.acquire(st, call)
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
		thenSt := w.block(x.Body.List, w.acquire(st, call))
		elseSt := st
		if x.Else != nil {
			elseSt = w.stmt(x.Else, elseSt)
		}
		return sbJoin(thenSt, elseSt)
	}

	// Plain branching; a mode flag takes the one branch this walk assumes.
	if x.Init != nil {
		st = w.stmt(x.Init, st)
	}
	st = w.scanEffects(x.Cond, st)
	if name, when, ok := bareFlag(x.Cond); ok {
		if v, assumed := w.assume[name]; assumed {
			switch {
			case v == when:
				return w.block(x.Body.List, st)
			case x.Else != nil:
				return w.stmt(x.Else, st)
			}
			return st
		}
	}
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
