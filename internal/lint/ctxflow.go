package lint

import (
	"fmt"
	"go/ast"
	"go/token"
)

// ctxFlow enforces context discipline around the paper's external-call
// machinery. Two sub-checks:
//
//  1. In internal/{async,search,server,core}, an exported function or
//     method that directly performs a pump operation (RegisterCtx,
//     Request, PeekRound, AwaitAnyCtx, CallWithRetry, ...) or a network call (net/http)
//     must accept a context.Context parameter: without one, a query
//     deadline cannot reach the external call it is supposed to bound.
//
//  2. Outside main packages and tests, context.Background() and
//     context.TODO() are forbidden except as the idiomatic nil-context
//     default (`if ctx == nil { ctx = context.Background() }`): any
//     other use silently detaches work from the caller's cancellation
//     scope.
//
// Sub-check 1 is interprocedural: effectful-ness propagates over the
// whole program's call graph through every context-less function, so an
// exported wrapper is flagged even when the pump or network call hides
// behind helper layers in another package.
type ctxFlow struct {
	// scopes restricts sub-check 1.
	scopes []string
	// pumpMethods are the blocking pump operations by method name. The
	// distinctive names match syntactically; ambiguous ones (Request)
	// additionally require the receiver to resolve to async.Pump when
	// type information is available.
	pumpMethods map[string]bool
	// netFuncs are package-level net/http entry points that carry no
	// context.
	netFuncs map[string]bool
}

func newCtxFlow() *ctxFlow {
	return &ctxFlow{
		scopes: []string{"internal/async", "internal/search", "internal/server", "internal/core", "internal/obs", "internal/shard", "internal/exec"},
		pumpMethods: map[string]bool{
			"RegisterCtx": true, "Request": true, "PeekRound": true, "RequestRound": true, "AwaitAnyCtx": true, "CallWithRetry": true,
		},
		netFuncs: map[string]bool{"Get": true, "Post": true, "PostForm": true, "Head": true},
	}
}

func (*ctxFlow) Name() string { return "ctxflow" }

func (*ctxFlow) Doc() string {
	return "exported functions performing pump or network calls must take a context.Context; context.Background()/TODO() only in main packages, tests, and nil-context defaults"
}

func (r *ctxFlow) Check(prog *Program) []Diagnostic {
	var diags []Diagnostic
	eff := r.effectfulFuncs(prog)
	for _, pkg := range prog.Pkgs {
		if pkg.Name != "main" {
			diags = append(diags, r.checkBackground(pkg)...)
		}
		if pathMatch(pkg.Path, r.scopes...) {
			diags = append(diags, r.checkExported(prog, pkg, eff)...)
		}
	}
	return diags
}

// --- sub-check 1: exported effectful functions need a ctx param -------

// effectfulFuncs computes, over the whole program's call graph, the
// context-less functions that (transitively) perform a pump or network
// call. Propagation crosses package boundaries but stops at any
// function that takes a context parameter — such a callee is
// cancellable, and what its callers pass it is their own business
// (sub-check 2 polices Background()).
func (r *ctxFlow) effectfulFuncs(prog *Program) map[*FuncInfo]bool {
	hasCtx := make(map[*FuncInfo]bool, len(prog.Funcs))
	eff := make(map[*FuncInfo]bool)
	for _, fi := range prog.Funcs {
		hasCtx[fi] = hasCtxParam(fi.File, fi.Decl.Type)
		if !hasCtx[fi] && r.firstEffectfulCall(fi.Pkg, fi.File, fi.Decl.Body) != nil {
			eff[fi] = true
		}
	}
	prog.fixedPoint(func(fi *FuncInfo) bool {
		if eff[fi] || hasCtx[fi] {
			return false
		}
		for _, e := range fi.Calls {
			if e.InFuncLit || e.Target == nil {
				continue
			}
			if eff[e.Target] {
				eff[fi] = true
				return true
			}
		}
		return false
	})
	return eff
}

func (r *ctxFlow) checkExported(prog *Program, pkg *Package, eff map[*FuncInfo]bool) []Diagnostic {
	var diags []Diagnostic
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			if hasCtxParam(f, fd.Type) {
				continue
			}
			what := ""
			if call := r.firstEffectfulCall(pkg, f, fd.Body); call != nil {
				recv, name := callee(call)
				what = name
				if recv != "" {
					what = recv + "." + name
				}
			} else if fi := prog.FuncOf(fd); fi != nil {
				// Interprocedural: a call into any context-less function
				// that is transitively effectful, wherever it lives.
				for _, e := range fi.Calls {
					if e.InFuncLit || e.Target == nil || !eff[e.Target] {
						continue
					}
					what = e.Target.Name()
					if e.Target.Pkg != pkg {
						what = e.Target.Pkg.Name + "." + what
					}
					what += " (transitively)"
					break
				}
			}
			if what == "" {
				continue
			}
			diags = append(diags, Diagnostic{
				Pos:  pkg.Position(fd.Name.Pos()),
				Rule: r.Name(),
				Message: fmt.Sprintf("exported %s performs an external call (%s) but takes no context.Context; "+
					"query deadlines cannot reach it", fd.Name.Name, what),
			})
		}
	}
	return diags
}

// hasCtxParam reports whether the signature has a parameter that carries
// a cancellation scope: a context.Context, or any *Context carrier like
// the executor's *exec.Context (which wraps Ctx context.Context for the
// operator interface). Resolution is syntactic.
func hasCtxParam(f *ast.File, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	ctxName, _ := importName(f, "context")
	for _, field := range ft.Params.List {
		t := ast.Unparen(field.Type)
		if star, ok := t.(*ast.StarExpr); ok {
			t = ast.Unparen(star.X)
		}
		sel, ok := t.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Context" {
			continue
		}
		base, ok := sel.X.(*ast.Ident)
		if ok && (base.Name == ctxName || base.Name == "exec") {
			return true
		}
	}
	return false
}

// firstEffectfulCall finds a direct pump/network call in body, ignoring
// nested function literals (a closure runs under whatever context its
// eventual caller supplies).
func (r *ctxFlow) firstEffectfulCall(pkg *Package, f *ast.File, body *ast.BlockStmt) *ast.CallExpr {
	var found *ast.CallExpr
	httpName, hasHTTP := importName(f, "net/http")
	inspectShallow(body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		recv, name := callee(call)
		switch {
		case r.pumpMethods[name]:
			// Resolve ambiguity with type info when we have it: Register
			// and AwaitAny-like names exist on other types too.
			if named := recvNamed(pkg, sel); named != nil && !isNamedType(named, "internal/async", "Pump") {
				return true
			}
			found = call
		case hasHTTP && recv == httpName && r.netFuncs[name]:
			found = call // http.Get(url) and friends: context-free by design
		case (lastSegment(recv) == "http" || lastSegment(recv) == "client") &&
			(name == "Do" || name == "Get" || name == "Post" || name == "Head"):
			// A stored *http.Client field: c.http.Get(u). With type info,
			// require the receiver to actually be an http.Client.
			if named := recvNamed(pkg, sel); named != nil && !isNamedType(named, "net/http", "Client") {
				return true
			}
			found = call
		}
		return true
	})
	return found
}

// --- sub-check 2: no context.Background()/TODO() ----------------------

func (r *ctxFlow) checkBackground(pkg *Package) []Diagnostic {
	var diags []Diagnostic
	for _, f := range pkg.Files {
		ctxName, imported := importName(f, "context")
		if !imported {
			continue
		}
		// Walk with enough structure to recognize the nil-default idiom.
		var walk func(n ast.Node, allowed map[*ast.CallExpr]bool)
		walk = func(n ast.Node, allowed map[*ast.CallExpr]bool) {
			ast.Inspect(n, func(c ast.Node) bool {
				switch x := c.(type) {
				case *ast.IfStmt:
					// if <ident> == nil { <ident> = context.Background() }
					if v, ok := nilCheckedIdent(x.Cond); ok {
						for _, s := range x.Body.List {
							if call := backgroundAssignTo(s, v, ctxName); call != nil {
								allowed[call] = true
							}
						}
					}
				case *ast.CallExpr:
					if name, isBg := backgroundCall(x, ctxName); isBg && !allowed[x] {
						diags = append(diags, Diagnostic{
							Pos:  pkg.Position(x.Pos()),
							Rule: r.Name(),
							Message: "context." + name + "() detaches this call from the query's cancellation scope; " +
								"thread a ctx parameter through (allowed only in package main, tests, and `if ctx == nil` defaults)",
						})
					}
				}
				return true
			})
		}
		walk(f, make(map[*ast.CallExpr]bool))
	}
	return diags
}

// backgroundCall reports whether call is context.Background() or
// context.TODO() under the file's import name for "context".
func backgroundCall(call *ast.CallExpr, ctxName string) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	base, ok := sel.X.(*ast.Ident)
	if !ok || base.Name != ctxName {
		return "", false
	}
	if sel.Sel.Name == "Background" || sel.Sel.Name == "TODO" {
		return sel.Sel.Name, true
	}
	return "", false
}

// nilCheckedIdent matches `x == nil` and returns x's name.
func nilCheckedIdent(cond ast.Expr) (string, bool) {
	name, op, ok := nilComparison(cond)
	return name, ok && op == token.EQL
}

// nilComparison matches `x == nil` / `x != nil` and returns x's name
// and the comparison operator.
func nilComparison(cond ast.Expr) (string, token.Token, bool) {
	bin, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
		return "", 0, false
	}
	id, ok := ast.Unparen(bin.X).(*ast.Ident)
	if !ok {
		return "", 0, false
	}
	if nilID, ok := ast.Unparen(bin.Y).(*ast.Ident); !ok || nilID.Name != "nil" {
		return "", 0, false
	}
	return id.Name, bin.Op, true
}

// backgroundAssignTo matches `v = context.Background()` (or TODO) and
// returns the call when s assigns to the named ident.
func backgroundAssignTo(s ast.Stmt, v, ctxName string) *ast.CallExpr {
	assign, ok := s.(*ast.AssignStmt)
	if !ok || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
		return nil
	}
	lhs, ok := ast.Unparen(assign.Lhs[0]).(*ast.Ident)
	if !ok || lhs.Name != v {
		return nil
	}
	call, ok := ast.Unparen(assign.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return nil
	}
	if _, isBg := backgroundCall(call, ctxName); !isBg {
		return nil
	}
	return call
}
