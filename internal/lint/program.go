package lint

import (
	"go/ast"
	"go/types"
)

// Program is what every rule checks: the loaded packages, and every
// function declaration in them indexed under a stable key, with outgoing
// calls resolved through go/types where possible and by name within a
// package otherwise.
//
// Each package is type-checked in its own universe (dependencies are
// re-checked signature-only by the loader's importer), so two
// *types.Func objects describing the same function are not pointer
// equal across packages. Keys are therefore strings —
// "importPath.RecvType.FuncName" — which both universes agree on.
type Program struct {
	Pkgs []*Package
	// Funcs maps every function/method declaration to its info.
	Funcs map[*ast.FuncDecl]*FuncInfo
	byKey map[string]*FuncInfo
}

// FuncInfo is one function or method declaration plus its resolved
// outgoing calls. Rules attach their own summaries; this layer only
// provides the graph.
type FuncInfo struct {
	Pkg  *Package
	File *ast.File
	Decl *ast.FuncDecl
	// Key is "importPath.RecvType.Name" (RecvType empty for functions).
	Key string
	// RecvType is the receiver's named type ("" for plain functions).
	RecvType string
	// Calls are the resolved outgoing call sites, in source order.
	Calls []CallEdge
}

// Name returns a human label like "(*Pump).run" or "Run".
func (f *FuncInfo) Name() string {
	if f.RecvType != "" {
		return "(*" + f.RecvType + ")." + f.Decl.Name.Name
	}
	return f.Decl.Name.Name
}

// CallEdge is one call site inside a function body.
type CallEdge struct {
	Call *ast.CallExpr
	// Target is the resolved callee, nil for calls into the standard
	// library, builtins, interface methods, and anything else outside
	// the loaded package set.
	Target *FuncInfo
	// InFuncLit marks calls written inside a function literal: they run
	// at some later invocation, not when the enclosing body does.
	InFuncLit bool
}

// BuildProgram indexes the packages and resolves their call graphs.
func BuildProgram(pkgs []*Package) *Program {
	prog := &Program{
		Pkgs:  pkgs,
		Funcs: make(map[*ast.FuncDecl]*FuncInfo),
		byKey: make(map[string]*FuncInfo),
	}
	// Pass 1: index every declaration.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fi := &FuncInfo{
					Pkg:      pkg,
					File:     f,
					Decl:     fd,
					RecvType: recvTypeName(fd),
				}
				fi.Key = pkg.Path + "." + fi.RecvType + "." + fd.Name.Name
				prog.Funcs[fd] = fi
				prog.byKey[fi.Key] = fi
			}
		}
	}
	// Pass 2: resolve outgoing calls.
	for _, fi := range prog.Funcs {
		prog.resolveCalls(fi)
	}
	return prog
}

// FuncOf returns the info for a declaration (nil for bodyless decls).
func (p *Program) FuncOf(fd *ast.FuncDecl) *FuncInfo { return p.Funcs[fd] }

// recvTypeName extracts a declaration's receiver type name
// syntactically ("Pump" for `func (p *Pump) run()`), handling pointer
// and generic receivers. It returns "" for plain functions.
func recvTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := ast.Unparen(fd.Recv.List[0].Type)
	if star, ok := t.(*ast.StarExpr); ok {
		t = ast.Unparen(star.X)
	}
	switch x := t.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.IndexExpr:
		if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
			return id.Name
		}
	case *ast.IndexListExpr:
		if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
			return id.Name
		}
	}
	return ""
}

// objKey renders the stable cross-universe key for a function object.
func objKey(obj types.Object) string {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	recv := ""
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		switch n := t.(type) {
		case *types.Named:
			recv = n.Obj().Name()
		case *types.Interface:
			return "" // interface methods have many implementations
		}
	}
	return fn.Pkg().Path() + "." + recv + "." + fn.Name()
}

// resolveCalls walks a function body recording every call site and its
// resolution. Resolution prefers type information; an unresolved bare
// ident falls back to a same-package function of that name, so fixture
// packages with partial type info still link.
func (p *Program) resolveCalls(fi *FuncInfo) {
	pkg := fi.Pkg
	litDepth := 0
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(c ast.Node) bool {
			switch x := c.(type) {
			case *ast.FuncLit:
				litDepth++
				walk(x.Body)
				litDepth--
				return false
			case *ast.CallExpr:
				edge := CallEdge{Call: x, InFuncLit: litDepth > 0}
				edge.Target = p.resolveTarget(pkg, x)
				fi.Calls = append(fi.Calls, edge)
			}
			return true
		})
	}
	walk(fi.Decl.Body)
}

// resolveTarget maps one call expression to a loaded FuncInfo, or nil.
func (p *Program) resolveTarget(pkg *Package, call *ast.CallExpr) *FuncInfo {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if pkg.Info != nil {
			obj = pkg.Info.Uses[fun]
		}
		if obj == nil {
			// Name fallback: a same-package function (fixtures with
			// incomplete type info still need their helpers linked).
			if fi, ok := p.byKey[pkg.Path+".."+fun.Name]; ok {
				return fi
			}
			return nil
		}
	case *ast.SelectorExpr:
		if pkg.Info != nil {
			obj = pkg.Info.Uses[fun.Sel]
		}
		if obj == nil {
			// Method-on-local-receiver fallback by receiver type name.
			if named := recvNamed(pkg, fun); named != nil {
				if fi, ok := p.byKey[pkg.Path+"."+named.Obj().Name()+"."+fun.Sel.Name]; ok {
					return fi
				}
			}
			return nil
		}
	default:
		return nil
	}
	key := objKey(obj)
	if key == "" {
		return nil
	}
	return p.byKey[key]
}

// fixedPoint iterates mark over every function until no new function is
// marked: the generic propagation loop behind the transitive summaries
// (effectful, lock-acquiring). mark returns true when it newly marked fi.
func (p *Program) fixedPoint(mark func(fi *FuncInfo) bool) {
	for changed := true; changed; {
		changed = false
		for _, fi := range p.Funcs {
			if mark(fi) {
				changed = true
			}
		}
	}
}
