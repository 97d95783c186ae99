package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// errJoin polices the operator-teardown error contract: a Close method
// that closes children (or any owned resource) must surface every
// child's Close error, aggregating multiple with errors.Join. A dropped
// Close error is how a leak hides — PR 7's lifecycle harness only
// caught half-open subtrees because exec.Run joins Close errors into
// every failure path; a Close that swallows its child's error breaks
// that reporting chain silently.
//
// The rule flags, inside any method named Close with an error result in
// the engine packages, every `x.Close()` call whose error is discarded:
// as a bare expression statement, assigned to blank, or deferred. When
// type information resolves the call, only error-returning Close
// methods count (a Close returning nothing is fine to drop).
type errJoin struct{}

func newErrJoin() *errJoin { return &errJoin{} }

func (*errJoin) Name() string { return "errjoin" }

func (*errJoin) Doc() string {
	return "Close methods must not discard child Close errors; aggregate multiple with errors.Join"
}

var errJoinScopes = []string{
	"internal/exec", "internal/async", "internal/core",
	"internal/shard", "internal/server", "internal/cache",
}

func (r *errJoin) Check(prog *Program) []Diagnostic {
	var diags []Diagnostic
	for _, fi := range prog.Funcs {
		if !pathMatch(fi.Pkg.Path, errJoinScopes...) {
			continue
		}
		if fi.Decl.Name.Name != "Close" || fi.RecvType == "" || !returnsError(fi.Decl.Type) {
			continue
		}
		diags = append(diags, r.checkClose(fi)...)
	}
	return diags
}

// returnsError reports (syntactically) whether the signature's results
// include an `error`.
func returnsError(ft *ast.FuncType) bool {
	if ft.Results == nil {
		return false
	}
	for _, f := range ft.Results.List {
		if id, ok := ast.Unparen(f.Type).(*ast.Ident); ok && id.Name == "error" {
			return true
		}
	}
	return false
}

func (r *errJoin) checkClose(fi *FuncInfo) []Diagnostic {
	var diags []Diagnostic
	report := func(call *ast.CallExpr, how string) {
		recv, _ := callee(call)
		what := "Close()"
		if recv != "" {
			what = recv + ".Close()"
		}
		diags = append(diags, Diagnostic{
			Pos:  fi.Pkg.Position(call.Pos()),
			Rule: r.Name(),
			Message: fmt.Sprintf("in (*%s).Close: %s error is %s; a swallowed teardown error hides leaks — "+
				"aggregate with errors.Join and return it", fi.RecvType, what, how),
		})
	}
	inspectShallow(fi.Decl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.ExprStmt:
			if call, ok := discardedClose(fi.Pkg, x.X); ok {
				report(call, "dropped")
			}
		case *ast.DeferStmt:
			if call, ok := discardedClose(fi.Pkg, x.Call); ok {
				report(call, "dropped by defer")
			}
		case *ast.GoStmt:
			if call, ok := discardedClose(fi.Pkg, x.Call); ok {
				report(call, "dropped in a goroutine")
			}
		case *ast.AssignStmt:
			for i, rhs := range x.Rhs {
				call, ok := discardedClose(fi.Pkg, rhs)
				if !ok {
					continue
				}
				// Single-value form: the matching LHS must not be blank. A
				// multi-result callee on the RHS can't be a bare Close().
				if len(x.Lhs) == len(x.Rhs) {
					if id, isID := ast.Unparen(x.Lhs[i]).(*ast.Ident); isID && id.Name == "_" {
						report(call, "assigned to _")
					}
				}
			}
		}
		return true
	})
	return diags
}

// discardedClose matches a no-argument `<expr>.Close()` call whose
// result, when type-resolved, is an error. Unresolved calls count too:
// in these packages Close conventionally returns error, and a false
// negative here is a silent leak path.
func discardedClose(pkg *Package, e ast.Expr) (*ast.CallExpr, bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return nil, false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Close" {
		return nil, false
	}
	// With type info: only error-returning Close calls count.
	if pkg.Info != nil {
		if tv, resolved := pkg.Info.Types[call]; resolved && tv.Type != nil {
			if !typeIsError(tv.Type) {
				return nil, false
			}
		}
	}
	return call, true
}

func typeIsError(t types.Type) bool {
	if named, ok := t.(*types.Named); ok {
		return named.Obj() != nil && named.Obj().Name() == "error" && named.Obj().Pkg() == nil
	}
	// The universe error is an alias for an interface; types renders it
	// as the named universe type above, but be permissive about tuples.
	if tup, ok := t.(*types.Tuple); ok {
		for i := 0; i < tup.Len(); i++ {
			if typeIsError(tup.At(i).Type()) {
				return true
			}
		}
	}
	return false
}
