package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
)

// goroutineCtx checks that goroutines spawned in the async and server
// layers cannot outlive their owners silently. A `go func` literal in
// internal/async or internal/server must either
//
//   - select on (or receive from) a cancellation signal — ctx.Done(),
//     a stop/done/quit/closed channel — so pump shutdown and query
//     cancellation actually reach it, or
//   - be registered with a sync.WaitGroup (defer wg.Done()), so a
//     drain/settle path can wait for it.
//
// Unowned goroutines are how a long-lived wsqd leaks: the chaos suite's
// goroutine-settle assertions catch some at runtime; this catches the
// pattern at compile time.
//
// The check is interprocedural: a `go p.run(c)` whose named target
// resolves in the loaded program is held to the same standard, with
// cancellability propagating through the target's callees — p.run is
// fine because its execute loop selects on the call's ctx.Done(), even
// though run itself never mentions a channel. Unresolvable targets
// (stdlib, interface methods) are skipped.
type goroutineCtx struct{}

func newGoroutineCtx() *goroutineCtx { return &goroutineCtx{} }

func (*goroutineCtx) Name() string { return "goroutinectx" }

func (*goroutineCtx) Doc() string {
	return "goroutines in internal/{async,server,shard} must reach a cancellation signal (directly or via their named target's callees) or register with a WaitGroup"
}

// cancelChanRx matches channel identifiers that conventionally signal
// shutdown.
var cancelChanRx = regexp.MustCompile(`(?i)^(done|stop|stopped|quit|exit|closed?|cancel|shutdown)$`)

// wgNameRx is the no-type-info fallback for WaitGroup receivers.
var wgNameRx = regexp.MustCompile(`(?i)(^|\.)wg$|waitgroup$`)

func (r *goroutineCtx) Check(prog *Program) []Diagnostic {
	cancellable := r.cancellableFuncs(prog)
	var diags []Diagnostic
	for _, pkg := range prog.Pkgs {
		if !pathMatch(pkg.Path, "internal/async", "internal/server", "internal/shard") {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				gs, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				if lit, isLit := gs.Call.Fun.(*ast.FuncLit); isLit {
					if r.hasCancellationPath(pkg, lit.Body) || r.callsCancellable(prog, pkg, lit.Body, cancellable) {
						return true
					}
					diags = append(diags, Diagnostic{
						Pos:  pkg.Position(gs.Pos()),
						Rule: r.Name(),
						Message: "goroutine has no cancellation path: select on ctx.Done()/a close channel " +
							"or register it with a WaitGroup (defer wg.Done()) so shutdown can reach it",
					})
					return true
				}
				// Named target: hold it to the same standard when it
				// resolves inside the program.
				target := prog.resolveTarget(pkg, gs.Call)
				if target == nil || cancellable[target] {
					return true
				}
				diags = append(diags, Diagnostic{
					Pos:  pkg.Position(gs.Pos()),
					Rule: r.Name(),
					Message: fmt.Sprintf("goroutine target %s has no cancellation path (neither it nor its callees select on "+
						"ctx.Done()/a close channel or register with a WaitGroup); shutdown cannot reach it", target.Name()),
				})
				return true
			})
		}
	}
	return diags
}

// cancellableFuncs marks every function that owns a cancellation path,
// directly or through any resolved callee (calls launched with `go`
// don't count: a child goroutine's exit does not stop its parent).
func (r *goroutineCtx) cancellableFuncs(prog *Program) map[*FuncInfo]bool {
	out := make(map[*FuncInfo]bool)
	for _, fi := range prog.Funcs {
		if r.hasCancellationPath(fi.Pkg, fi.Decl.Body) {
			out[fi] = true
		}
	}
	prog.fixedPoint(func(fi *FuncInfo) bool {
		if out[fi] {
			return false
		}
		for _, e := range fi.Calls {
			if e.GoCall || e.Target == nil {
				continue
			}
			if out[e.Target] {
				out[fi] = true
				return true
			}
		}
		return false
	})
	return out
}

// callsCancellable reports whether a goroutine literal's body calls a
// resolved function that owns a cancellation path.
func (r *goroutineCtx) callsCancellable(prog *Program, pkg *Package, body *ast.BlockStmt, cancellable map[*FuncInfo]bool) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if target := prog.resolveTarget(pkg, call); target != nil && cancellable[target] {
				found = true
			}
		}
		return !found
	})
	return found
}

func (r *goroutineCtx) hasCancellationPath(pkg *Package, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.UnaryExpr:
			// A receive from ctx.Done() / <-stop anywhere (select case,
			// loop condition, bare statement) is a cancellation path.
			if x.Op == token.ARROW && isCancelSource(x.X) {
				found = true
			}
		case *ast.DeferStmt:
			// defer wg.Done() — goroutine is awaited by a drain path.
			if recv, name := callee(x.Call); name == "Done" && recv != "" {
				if sel, ok := ast.Unparen(x.Call.Fun).(*ast.SelectorExpr); ok {
					if named := recvNamed(pkg, sel); named != nil {
						if isNamedType(named, "sync", "WaitGroup") {
							found = true
						}
					} else if wgNameRx.MatchString(recv) {
						found = true
					}
				}
			}
		case *ast.RangeStmt:
			// `for v := range ch` over a cancel-ish channel also ends with
			// close(ch).
			if isCancelSource(x.X) {
				found = true
			}
		}
		return !found
	})
	return found
}

// isCancelSource recognizes expressions that deliver a shutdown signal:
// a call to something named Done()/Closed() (ctx.Done(), pump.Closed()),
// or a channel identifier with a conventional shutdown name.
func isCancelSource(e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		_, name := callee(x)
		return name == "Done" || name == "Closed" || name == "Closing"
	case *ast.Ident:
		return cancelChanRx.MatchString(x.Name)
	case *ast.SelectorExpr:
		return cancelChanRx.MatchString(x.Sel.Name)
	}
	return false
}
