package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
)

// lockScope checks mutex discipline around the pump and server hot
// paths. Two invariants:
//
//  1. A mu.Lock() that is not immediately paired with `defer
//     mu.Unlock()` must have a matching Unlock() on every control-flow
//     path to every return — the admission-control and stats paths
//     unlock manually for latency, and one missed path wedges every
//     future query (ReqPump waiters park on p.cond under p.mu forever).
//
//  2. While any lock is held, no channel send/receive or select may
//     run: those park the goroutine for unbounded time with the lock
//     held, turning a slow external call into a server-wide stall.
//     sync.Cond Wait/Signal/Broadcast are exempt (Wait releases the
//     mutex by contract), and so is one shape of select: a try-send,
//     whose comm clauses all send a variable or field on a variable or
//     field and which has a default clause (the pump's handoff to a
//     parked goroutine). Its operands cannot block and the default means
//     it never waits; a try-receive, or a send whose channel or value is
//     anything else (a receive, a call), stays flagged.
//
// The walker is a structured abstract interpretation of the body,
// with a held-lock set keyed by the receiver chain ("s.mu", "p.rngMu").
// It reads one function at a time: a lock held across a call that blocks
// somewhere below — a whole query run under a server lock — is beyond it
// (DESIGN.md §7, mutant lockscope5).
type lockScope struct{}

func newLockScope() *lockScope { return &lockScope{} }

func (*lockScope) Name() string { return "lockscope" }

func (*lockScope) Doc() string {
	return "manual mu.Lock() must unlock on every return path; no channel operations while a lock is held"
}

// mutexNameRx is the fallback when type information is unavailable:
// receivers whose final segment looks like a mutex.
var mutexNameRx = regexp.MustCompile(`(?i)(mu|mutex|lock)$`)

// isMutexRecv decides whether path.method() is a mutex operation, using
// the type checker when it resolved the selector and a name heuristic
// otherwise.
func (r *lockScope) isMutexRecv(pkg *Package, call *ast.CallExpr) (key string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", false
	}
	path, pathOK := exprPath(sel.X)
	if !pathOK {
		return "", false
	}
	if named := recvNamed(pkg, sel); named != nil {
		if isNamedType(named, "sync", "Mutex") || isNamedType(named, "sync", "RWMutex") {
			return path, true
		}
		return "", false
	}
	return path, mutexNameRx.MatchString(lastSegment(path))
}

func (r *lockScope) Check(prog *Program) []Diagnostic {
	var diags []Diagnostic
	// Each body — a declaration's, and every function literal's under it
	// — is its own scope, walked from an empty held set.
	walk := func(fi *FuncInfo, fname string, body *ast.BlockStmt) {
		w := &lsWalker{rule: r, pkg: fi.Pkg, fname: fname}
		st := w.block(body.List, lsState{held: map[string]token.Pos{}, deferred: map[string]bool{}})
		w.checkExit(body.End(), st)
		diags = append(diags, w.diags...)
	}
	for _, fi := range prog.Funcs {
		walk(fi, fi.Decl.Name.Name, fi.Decl.Body)
		for _, lit := range funcLits(fi.Decl.Body) {
			walk(fi, fi.Decl.Name.Name+" (func literal)", lit.Body)
		}
	}
	return diags
}

type lsState struct {
	held       map[string]token.Pos // lock key -> Lock() position
	deferred   map[string]bool      // keys with a registered defer Unlock
	terminated bool
}

func (st lsState) clone() lsState {
	h := make(map[string]token.Pos, len(st.held))
	for k, v := range st.held {
		h[k] = v
	}
	d := make(map[string]bool, len(st.deferred))
	for k, v := range st.deferred {
		d[k] = v
	}
	return lsState{held: h, deferred: d}
}

// anyBare returns a held key with no deferred unlock, for exit checks.
func (st lsState) bareHeld() (string, token.Pos, bool) {
	for k, p := range st.held {
		if !st.deferred[k] {
			return k, p, true
		}
	}
	return "", 0, false
}

// anyHeld returns any held key (deferred or not), for blocking-op checks.
func (st lsState) anyHeld() (string, bool) {
	for k := range st.held {
		return k, true
	}
	return "", false
}

func lsJoin(a, b lsState) lsState {
	if a.terminated {
		return b
	}
	if b.terminated {
		return a
	}
	out := lsState{held: map[string]token.Pos{}, deferred: map[string]bool{}}
	for k, p := range a.held { // union of held: a lock on any path must be handled
		out.held[k] = p
	}
	for k, p := range b.held {
		if _, ok := out.held[k]; !ok {
			out.held[k] = p
		}
	}
	for k := range a.deferred { // intersection of defers: safe only if on all paths
		if b.deferred[k] {
			out.deferred[k] = true
		}
	}
	return out
}

type lsWalker struct {
	rule  *lockScope
	pkg   *Package
	fname string
	diags []Diagnostic
}

func (w *lsWalker) checkExit(at token.Pos, st lsState) {
	if st.terminated {
		return
	}
	if k, pos, bare := st.bareHeld(); bare {
		w.diags = append(w.diags, Diagnostic{
			Pos:  w.pkg.Position(at),
			Rule: w.rule.Name(),
			Message: fmt.Sprintf("in %s: %s.Lock() at %v has no Unlock() on this return path (unlock before returning or use defer)",
				w.fname, k, w.pkg.Position(pos)),
		})
	}
}

// scanEffects applies lock/unlock calls and reports blocking operations
// performed while a lock is held. Nested function literals are opaque.
func (w *lsWalker) scanEffects(n ast.Node, st lsState) lsState {
	inspectShallow(n, func(c ast.Node) bool {
		switch x := c.(type) {
		case *ast.CallExpr:
			switch _, name := callee(x); name {
			case "Lock", "RLock":
				if key, ok := w.rule.isMutexRecv(w.pkg, x); ok {
					st.held[key] = x.Pos()
				}
			case "Unlock", "RUnlock":
				if key, ok := w.rule.isMutexRecv(w.pkg, x); ok {
					delete(st.held, key)
					delete(st.deferred, key)
				}
			}
		case *ast.SendStmt:
			w.checkChanOp(x.Pos(), "channel send", st)
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				w.checkChanOp(x.Pos(), "channel receive", st)
			}
		}
		return true
	})
	return st
}

func (w *lsWalker) checkChanOp(pos token.Pos, what string, st lsState) {
	if k, held := st.anyHeld(); held {
		w.diags = append(w.diags, Diagnostic{
			Pos:  w.pkg.Position(pos),
			Rule: w.rule.Name(),
			Message: fmt.Sprintf("in %s: %s while holding %s; channel waits are unbounded and wedge every contender",
				w.fname, what, k),
		})
	}
}

func (w *lsWalker) block(list []ast.Stmt, st lsState) lsState {
	for _, s := range list {
		if st.terminated {
			return st
		}
		st = w.stmt(s, st)
	}
	return st
}

func (w *lsWalker) stmt(s ast.Stmt, st lsState) lsState {
	switch x := s.(type) {
	case *ast.ReturnStmt:
		st = w.scanEffects(x, st)
		w.checkExit(x.Pos(), st)
		st.terminated = true
		return st

	case *ast.BlockStmt:
		return w.block(x.List, st)

	case *ast.IfStmt:
		if x.Init != nil {
			st = w.stmt(x.Init, st)
		}
		st = w.scanEffects(x.Cond, st)
		thenSt := w.block(x.Body.List, st.clone())
		elseSt := st.clone()
		if x.Else != nil {
			elseSt = w.stmt(x.Else, elseSt)
		}
		return lsJoin(thenSt, elseSt)

	case *ast.DeferStmt:
		if key, ok := deferUnlockKey(w, x); ok {
			st.deferred[key] = true
			return st
		}
		return st

	case *ast.GoStmt:
		// The goroutine body runs later under its own state; nothing to
		// apply here (literals are analyzed independently).
		return st

	case *ast.ForStmt:
		if x.Init != nil {
			st = w.stmt(x.Init, st)
		}
		if x.Cond != nil {
			st = w.scanEffects(x.Cond, st)
		}
		body := w.block(x.Body.List, st.clone())
		return lsJoin(st, body)

	case *ast.RangeStmt:
		st = w.scanEffects(x.X, st)
		body := w.block(x.Body.List, st.clone())
		return lsJoin(st, body)

	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		return w.branches(s, st)

	case *ast.SelectStmt:
		// The select itself is a channel wait, unless it is a try-send.
		if k, held := st.anyHeld(); held && !isTrySend(x) {
			w.diags = append(w.diags, Diagnostic{
				Pos:     w.pkg.Position(x.Pos()),
				Rule:    w.rule.Name(),
				Message: fmt.Sprintf("in %s: select while holding %s; channel waits are unbounded and wedge every contender", w.fname, k),
			})
		}
		return w.branches(s, st)

	case *ast.LabeledStmt:
		return w.stmt(x.Stmt, st)

	case *ast.BranchStmt:
		st.terminated = true
		return st

	default:
		return w.scanEffects(s, st)
	}
}

// branches joins switch/select clause bodies (no implicit fallthrough).
// A switch with no default can skip every case, so the entry state
// joins in; a select with no default blocks until a comm clause runs.
func (w *lsWalker) branches(s ast.Stmt, st lsState) lsState {
	var clauses []ast.Stmt
	hasDefault := false
	switch x := s.(type) {
	case *ast.SwitchStmt:
		if x.Init != nil {
			st = w.stmt(x.Init, st)
		}
		if x.Tag != nil {
			st = w.scanEffects(x.Tag, st)
		}
		clauses = x.Body.List
	case *ast.TypeSwitchStmt:
		clauses = x.Body.List
	case *ast.SelectStmt:
		hasDefault = true // never join the entry state around a select
		clauses = x.Body.List
	}
	out := lsState{terminated: true}
	for _, c := range clauses {
		var body []ast.Stmt
		branchSt := st.clone()
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
				// The comm op itself was accounted by the SelectStmt check;
				// still apply lock effects inside it (rare but legal).
				branchSt = w.applyCommEffects(cc.Comm, branchSt)
			}
			body = cc.Body
		}
		out = lsJoin(out, w.block(body, branchSt))
	}
	if !hasDefault {
		out = lsJoin(out, st)
	}
	return out
}

// isTrySend reports whether a select has a default clause and every other
// clause sends a plain operand — a variable or a field chain — on a plain
// channel: a select that can neither wait nor evaluate anything that does.
func isTrySend(x *ast.SelectStmt) bool {
	hasDefault := false
	for _, c := range x.Body.List {
		switch comm := c.(*ast.CommClause).Comm.(type) {
		case nil:
			hasDefault = true
		case *ast.SendStmt:
			if _, ok := exprPath(comm.Chan); !ok {
				return false
			}
			if _, ok := exprPath(comm.Value); !ok {
				return false
			}
		default:
			return false
		}
	}
	return hasDefault
}

// applyCommEffects applies Lock/Unlock effects inside a select comm
// statement without re-reporting its channel operation.
func (w *lsWalker) applyCommEffects(comm ast.Stmt, st lsState) lsState {
	saved := w.diags
	st = w.scanEffects(comm, st)
	w.diags = saved
	return st
}

// deferUnlockKey matches `defer mu.Unlock()` and `defer func() { ...
// mu.Unlock() ... }()`, returning the mutex key.
func deferUnlockKey(w *lsWalker, d *ast.DeferStmt) (string, bool) {
	if recv, name := callee(d.Call); recv != "" && (name == "Unlock" || name == "RUnlock") {
		if key, ok := w.rule.isMutexRecv(w.pkg, d.Call); ok {
			return key, true
		}
	}
	if lit, ok := d.Call.Fun.(*ast.FuncLit); ok {
		var key string
		found := false
		ast.Inspect(lit.Body, func(c ast.Node) bool {
			call, isCall := c.(*ast.CallExpr)
			if !isCall || found {
				return !found
			}
			if _, name := callee(call); name == "Unlock" || name == "RUnlock" {
				if k, ok := w.rule.isMutexRecv(w.pkg, call); ok {
					key, found = k, true
				}
			}
			return !found
		})
		if found {
			return key, true
		}
	}
	return "", false
}
