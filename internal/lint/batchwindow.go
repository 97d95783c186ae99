package lint

import (
	"fmt"
	"go/ast"
)

// batchWindow enforces the pull protocol's reuse invariant: a Batch
// returned by an operator's NextBatch — called through the Operator
// interface or on a concrete operator — is a window into operator-owned
// storage, valid only until the next NextBatch call on the same operator. Callers may iterate it and may copy tuple
// references out (`append(out, b...)` re-slices the elements), but the
// window itself must not outlive its validity:
//
//   - storing the batch in a struct field or package variable retains
//     it indefinitely;
//   - capturing it in a `go` function literal lets it race the
//     producer's next refill;
//   - appending the batch value itself (no ...) into any slice aliases
//     the window past the loop iteration that owns it;
//   - using it after a subsequent NextBatch on the same operator reads
//     a window the producer may already have overwritten.
//
// The same applies across calls: passing a batch to a function whose
// summary retains the parameter (field assignment, goroutine capture,
// whole-value append, or forwarding to another retainer) is flagged at
// the call site, so the invariant holds through helper boundaries.
//
// Producers are exempt: a method named NextBatch hands out windows by
// contract.
type batchWindow struct{}

func newBatchWindow() *batchWindow { return &batchWindow{} }

func (*batchWindow) Name() string { return "batchwindow" }

func (*batchWindow) Doc() string {
	return "NextBatch windows must not be stored in fields, captured by goroutines, appended whole, used past the next NextBatch, or passed to retaining functions"
}

func (r *batchWindow) CheckProgram(prog *Program) []Diagnostic {
	sums := bwSummaries(prog)
	var diags []Diagnostic
	for _, fi := range prog.Funcs {
		if !pathMatch(fi.Pkg.Path, "internal/exec", "internal/async") {
			continue
		}
		if fi.Decl.Name.Name == "NextBatch" {
			continue // producers hand out windows by contract
		}
		diags = append(diags, r.checkFunc(prog, fi, sums)...)
	}
	return diags
}

// batchCall matches a NextBatch method call — on an interface value or a
// concrete operator alike — and returns the producing operator's receiver
// path ("j.Left", "op") for same-operator invalidation tracking.
func batchCall(call *ast.CallExpr) (producer string, ok bool) {
	fun, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel || fun.Sel.Name != "NextBatch" {
		return "", false
	}
	p, _ := exprPath(fun.X)
	return p, true
}

// bwSummary records which parameters (by index) a function retains.
type bwSummary struct {
	retains map[int]bool
	why     map[int]string
}

// bwSummaries computes parameter-retention summaries for every loaded
// function to a fixed point (retention propagates through forwarding
// calls).
func bwSummaries(prog *Program) map[*FuncInfo]*bwSummary {
	sums := make(map[*FuncInfo]*bwSummary, len(prog.Funcs))
	params := make(map[*FuncInfo][]string)
	for _, fi := range prog.Funcs {
		sums[fi] = &bwSummary{retains: map[int]bool{}, why: map[int]string{}}
		var names []string
		if fi.Decl.Type.Params != nil {
			for _, field := range fi.Decl.Type.Params.List {
				for _, n := range field.Names {
					names = append(names, n.Name)
				}
			}
		}
		params[fi] = names
	}
	prog.fixedPoint(func(fi *FuncInfo) bool {
		sum := sums[fi]
		idx := make(map[string]int, len(params[fi]))
		for i, n := range params[fi] {
			if n != "_" {
				idx[n] = i
			}
		}
		if len(idx) == 0 {
			return false
		}
		changed := false
		mark := func(name, why string) {
			if i, ok := idx[name]; ok && !sum.retains[i] {
				sum.retains[i] = true
				sum.why[i] = why
				changed = true
			}
		}
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range x.Lhs {
					if _, isSel := ast.Unparen(lhs).(*ast.SelectorExpr); !isSel {
						continue
					}
					if i >= len(x.Rhs) {
						continue
					}
					for _, name := range wholeValueUses(x.Rhs[i]) {
						mark(name, "stores it in a field")
					}
				}
			case *ast.GoStmt:
				if lit, ok := x.Call.Fun.(*ast.FuncLit); ok {
					for name := range identUses(lit.Body) {
						mark(name, "captures it in a goroutine")
					}
				}
			}
			return true
		})
		// Forwarding: passing a param whole to a retaining callee.
		for _, edge := range fi.Calls {
			if edge.Target == nil || edge.InFuncLit {
				continue
			}
			ts := sums[edge.Target]
			for ai, arg := range edge.Call.Args {
				if !ts.retains[ai] {
					continue
				}
				if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
					mark(id.Name, "forwards it to "+edge.Target.Name()+", which "+ts.why[ai])
				}
			}
		}
		return changed
	})
	return sums
}

// wholeValueUses returns identifier names whose whole value flows into
// e: the bare ident itself, or append(..., ident) without ellipsis.
// append(dst, ident...) copies elements and is exempt.
func wholeValueUses(e ast.Expr) []string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return []string{x.Name}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "append" && x.Ellipsis == 0 {
			var out []string
			for _, a := range x.Args[1:] {
				if aid, ok := ast.Unparen(a).(*ast.Ident); ok {
					out = append(out, aid.Name)
				}
			}
			return out
		}
	}
	return nil
}

// identUses collects every identifier referenced under n.
func identUses(n ast.Node) map[string]bool {
	out := map[string]bool{}
	ast.Inspect(n, func(c ast.Node) bool {
		if id, ok := c.(*ast.Ident); ok {
			out[id.Name] = true
		}
		return true
	})
	return out
}

func (r *batchWindow) checkFunc(prog *Program, fi *FuncInfo, sums map[*FuncInfo]*bwSummary) []Diagnostic {
	var diags []Diagnostic
	report := func(n ast.Node, batch, what string) {
		diags = append(diags, Diagnostic{
			Pos:  fi.Pkg.Position(n.Pos()),
			Rule: r.Name(),
			Message: fmt.Sprintf("batch %s is a window into producer-owned storage, valid only until its next NextBatch; %s "+
				"(copy tuples out with append(dst, %s...) instead)", batch, what, batch),
		})
	}

	// batches: var name -> producer path, live in the enclosing scope.
	type binding struct {
		name     string
		producer string
	}
	var walkBlock func(list []ast.Stmt, inherited []binding)
	walkBlock = func(list []ast.Stmt, inherited []binding) {
		live := append([]binding(nil), inherited...)
		invalidated := map[string]bool{} // batch var -> producer advanced
		for _, s := range list {
			// Uses of already-invalidated batches in this statement.
			for _, b := range live {
				if !invalidated[b.name] {
					continue
				}
				used := false
				inspectShallow(s, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok && id.Name == b.name {
						used = true
					}
					return true
				})
				if used {
					report(s, b.name, fmt.Sprintf("it is used after a later NextBatch on %s invalidated it", b.producer))
					invalidated[b.name] = false // one report per var
				}
			}
			// Retention checks for live batches inside this statement.
			isBatch := func(name string) (binding, bool) {
				for _, b := range live {
					if b.name == name {
						return b, true
					}
				}
				return binding{}, false
			}
			inspectShallow(s, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.AssignStmt:
					for i, lhs := range x.Lhs {
						if _, isSel := ast.Unparen(lhs).(*ast.SelectorExpr); !isSel {
							continue
						}
						if i >= len(x.Rhs) {
							continue
						}
						for _, name := range wholeValueUses(x.Rhs[i]) {
							if _, ok := isBatch(name); ok {
								report(x, name, "it is retained in a field or captured variable")
							}
						}
					}
				case *ast.CallExpr:
					if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "append" && x.Ellipsis == 0 {
						for _, a := range x.Args[1:] {
							if aid, ok := ast.Unparen(a).(*ast.Ident); ok {
								if _, isB := isBatch(aid.Name); isB {
									report(x, aid.Name, "it is appended whole, aliasing the window past this iteration")
								}
							}
						}
					}
				}
				return true
			})
			// Goroutine captures (GoStmt bodies are skipped by
			// inspectShallow... they are FuncLits, so walk explicitly).
			ast.Inspect(s, func(n ast.Node) bool {
				gs, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				if lit, isLit := gs.Call.Fun.(*ast.FuncLit); isLit {
					uses := identUses(lit.Body)
					for _, b := range live {
						if uses[b.name] {
							report(gs, b.name, "it is captured by a goroutine that may outlive the window")
						}
					}
				}
				return true
			})
			// Interprocedural: batch passed whole to a retaining callee.
			for _, edge := range callsIn(fi, s) {
				if edge.Target == nil || edge.InFuncLit {
					continue
				}
				ts := sums[edge.Target]
				for ai, arg := range edge.Call.Args {
					if !ts.retains[ai] {
						continue
					}
					if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
						if _, isB := isBatch(id.Name); isB {
							report(edge.Call, id.Name, fmt.Sprintf("it is passed to %s, which %s", edge.Target.Name(), ts.why[ai]))
						}
					}
				}
			}
			// New bindings and invalidations from this statement's
			// NextBatch calls.
			inspectShallow(s, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				producer, isNB := batchCall(call)
				if !isNB {
					return true
				}
				bound := ""
				if assign, isAssign := s.(*ast.AssignStmt); isAssign && len(assign.Rhs) == 1 && ast.Unparen(assign.Rhs[0]) == call {
					if id, isID := ast.Unparen(assign.Lhs[0]).(*ast.Ident); isID && id.Name != "_" {
						bound = id.Name
					}
				}
				// A later NextBatch on the same producer invalidates every
				// earlier window from it, except a var this call rebinds.
				for i := range live {
					if live[i].producer == producer && live[i].name != bound {
						invalidated[live[i].name] = true
					}
				}
				if bound != "" {
					replaced := false
					for i := range live {
						if live[i].name == bound {
							live[i].producer = producer
							invalidated[bound] = false
							replaced = true
						}
					}
					if !replaced {
						live = append(live, binding{name: bound, producer: producer})
					}
				}
				return true
			})
			// Recurse into nested blocks with the current live set.
			switch x := s.(type) {
			case *ast.BlockStmt:
				walkBlock(x.List, live)
			case *ast.IfStmt:
				walkBlock(x.Body.List, live)
				if x.Else != nil {
					if eb, ok := x.Else.(*ast.BlockStmt); ok {
						walkBlock(eb.List, live)
					} else {
						walkBlock([]ast.Stmt{x.Else}, live)
					}
				}
			case *ast.ForStmt:
				walkBlock(x.Body.List, live)
			case *ast.RangeStmt:
				walkBlock(x.Body.List, live)
			case *ast.SwitchStmt:
				for _, c := range x.Body.List {
					if cc, ok := c.(*ast.CaseClause); ok {
						walkBlock(cc.Body, live)
					}
				}
			case *ast.TypeSwitchStmt:
				for _, c := range x.Body.List {
					if cc, ok := c.(*ast.CaseClause); ok {
						walkBlock(cc.Body, live)
					}
				}
			case *ast.SelectStmt:
				for _, c := range x.Body.List {
					if cc, ok := c.(*ast.CommClause); ok {
						walkBlock(cc.Body, live)
					}
				}
			case *ast.LabeledStmt:
				walkBlock([]ast.Stmt{x.Stmt}, live)
			}
		}
	}
	walkBlock(fi.Decl.Body.List, nil)

	// De-duplicate: the nested walk can visit a statement through both
	// the outer list and a labeled wrapper.
	seen := map[string]bool{}
	var out []Diagnostic
	for _, d := range diags {
		k := fmt.Sprintf("%s:%d:%d:%s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message)
		if !seen[k] {
			seen[k] = true
			out = append(out, d)
		}
	}
	return out
}

// callsIn returns fi's call edges whose call expression lies within s.
func callsIn(fi *FuncInfo, s ast.Stmt) []CallEdge {
	var out []CallEdge
	for _, e := range fi.Calls {
		if e.Call.Pos() >= s.Pos() && e.Call.End() <= s.End() {
			out = append(out, e)
		}
	}
	return out
}

// Check satisfies Rule; batchWindow only runs via CheckProgram.
func (*batchWindow) Check(*Package) []Diagnostic { return nil }
