package lint

import (
	"fmt"
	"go/ast"
	"sort"
	"strings"
)

// lockOrder derives the global mutex acquisition graph across the
// engine's concurrent layers (core, async, cache, shard, server) and
// flags cycles as potential deadlocks. lockscope polices discipline
// within one function — every Lock has its Unlock, no channel wait
// while held; lockOrder adds the dimension lockscope cannot see: two
// perfectly disciplined functions that take the same two locks in
// opposite orders deadlock the moment their goroutines interleave.
//
// Locks are keyed structurally, not by variable: `p.mu.Lock()` where p
// is an *async.Pump is the key "async.Pump.mu", so every function
// locking any Pump's mu contributes to the same node. An edge A -> B
// is recorded when B is acquired while A is held — directly, or by
// calling a function whose transitive summary may acquire B. Cycles in
// the resulting digraph (A -> B -> ... -> A) are reported once each,
// with the witness position for every edge.
//
// Keys require resolved type information for the lock's owner; a lock
// whose owner type cannot be resolved falls back to a
// package-qualified expression path, which still links same-package
// acquisition sites.
type lockOrder struct{}

func newLockOrder() *lockOrder { return &lockOrder{} }

func (*lockOrder) Name() string { return "lockorder" }

func (*lockOrder) Doc() string {
	return "the cross-package mutex acquisition graph (lock B while holding A) must be acyclic; a cycle is a latent deadlock"
}

var lockOrderScopes = []string{
	"internal/core", "internal/async", "internal/cache", "internal/shard", "internal/server",
}

// loEdge is one witnessed acquisition-order edge: to was acquired while
// from was held.
type loEdge struct {
	from, to string
	fi       *FuncInfo
	at       ast.Node
	// via names the callee chain when the acquisition is indirect.
	via string
}

func (r *lockOrder) Check(prog *Program) []Diagnostic {
	acq := r.transitiveAcquires(prog)
	edges := map[[2]string]loEdge{} // first witness per (from,to)
	for _, fi := range prog.Funcs {
		if !pathMatch(fi.Pkg.Path, lockOrderScopes...) {
			continue
		}
		for _, e := range r.funcEdges(prog, fi, acq) {
			k := [2]string{e.from, e.to}
			if _, ok := edges[k]; !ok {
				edges[k] = e
			}
		}
	}
	return r.reportCycles(edges)
}

// lockKey normalizes a mutex operation to its structural identity:
// "pkg.Owner.field" when the owner type resolves, "pkg:path" otherwise.
// ok is false for calls that are not mutex Lock/RLock/Unlock/RUnlock.
func lockKey(pkg *Package, call *ast.CallExpr) (key string, op string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	op = sel.Sel.Name
	if op != "Lock" && op != "RLock" && op != "Unlock" && op != "RUnlock" {
		return "", "", false
	}
	// The receiver must be a mutex (by type, or by name fallback).
	if named := recvNamed(pkg, sel); named != nil {
		if !isNamedType(named, "sync", "Mutex") && !isNamedType(named, "sync", "RWMutex") {
			return "", "", false
		}
	} else {
		path, pathOK := exprPath(sel.X)
		if !pathOK || !mutexNameRx.MatchString(lastSegment(path)) {
			return "", "", false
		}
	}
	// Structural key: owner type of the mutex field.
	if owner, field, okOwner := lockOwner(pkg, sel.X); okOwner {
		return owner + "." + field, op, true
	}
	path, _ := exprPath(sel.X)
	return pkg.Path + ":" + path, op, true
}

// lockOwner resolves `p.mu` to (owner type "async.Pump", field "mu").
func lockOwner(pkg *Package, mutexExpr ast.Expr) (owner, field string, ok bool) {
	sel, isSel := ast.Unparen(mutexExpr).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	named := recvNamed(pkg, sel)
	if named == nil || named.Obj() == nil || named.Obj().Pkg() == nil {
		return "", "", false
	}
	p := named.Obj().Pkg().Path()
	if i := strings.LastIndex(p, "/"); i >= 0 {
		p = p[i+1:]
	}
	return p + "." + named.Obj().Name(), sel.Sel.Name, true
}

// transitiveAcquires computes, per function, the set of lock keys the
// function may acquire directly or through any resolved callee
// (excluding calls inside function literals, which run later under
// their own stack).
func (r *lockOrder) transitiveAcquires(prog *Program) map[*FuncInfo]map[string]bool {
	acq := make(map[*FuncInfo]map[string]bool, len(prog.Funcs))
	for _, fi := range prog.Funcs {
		set := map[string]bool{}
		inspectShallow(fi.Decl.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if key, op, isLock := lockKey(fi.Pkg, call); isLock && (op == "Lock" || op == "RLock") {
					set[key] = true
				}
			}
			return true
		})
		acq[fi] = set
	}
	prog.fixedPoint(func(fi *FuncInfo) bool {
		set := acq[fi]
		changed := false
		for _, e := range fi.Calls {
			if e.Target == nil || e.InFuncLit || e.GoCall {
				continue
			}
			for k := range acq[e.Target] {
				if !set[k] {
					set[k] = true
					changed = true
				}
			}
		}
		return changed
	})
	return acq
}

// funcEdges walks one function in source order with a held-lock set,
// emitting an edge for every acquisition (direct or via callee) under a
// held lock. `defer mu.Unlock()` keeps the lock held to the end of the
// function, which is exactly the ordering-relevant reading.
func (r *lockOrder) funcEdges(prog *Program, fi *FuncInfo, acq map[*FuncInfo]map[string]bool) []loEdge {
	var edges []loEdge
	held := map[string]bool{}
	deferred := map[*ast.CallExpr]bool{}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok {
			deferred[d.Call] = true
		}
		return true
	})
	var order []string // held, in acquisition order (for stable output)
	acquire := func(key string, at ast.Node, via string) {
		for _, from := range order {
			if from == key {
				continue // re-locking the same structural key: lockscope's beat
			}
			edges = append(edges, loEdge{from: from, to: key, fi: fi, at: at, via: via})
		}
	}
	inspectShallow(fi.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if key, op, isLock := lockKey(fi.Pkg, call); isLock {
			switch op {
			case "Lock", "RLock":
				acquire(key, call, "")
				if !held[key] {
					held[key] = true
					order = append(order, key)
				}
			case "Unlock", "RUnlock":
				// A deferred unlock holds to function end; a direct unlock
				// releases here.
				if !deferred[call] && held[key] {
					delete(held, key)
					for i, k := range order {
						if k == key {
							order = append(order[:i], order[i+1:]...)
							break
						}
					}
				}
			}
			return true
		}
		// Calls under held locks contribute the callee's transitive set.
		if len(order) == 0 {
			return true
		}
		if target := prog.resolveTarget(fi.Pkg, call); target != nil {
			for k := range acq[target] {
				acquire(k, call, target.Name())
			}
		}
		return true
	})
	return edges
}

// reportCycles finds cycles in the edge digraph and reports each once,
// anchored at its lexicographically smallest node, with every edge's
// witness.
func (r *lockOrder) reportCycles(edges map[[2]string]loEdge) []Diagnostic {
	adj := map[string][]string{}
	for k := range edges {
		adj[k[0]] = append(adj[k[0]], k[1])
	}
	for _, next := range adj {
		sort.Strings(next)
	}
	var nodes []string
	for n := range adj {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)

	reported := map[string]bool{}
	var diags []Diagnostic
	var path []string
	onPath := map[string]bool{}
	var dfs func(n string)
	dfs = func(n string) {
		path = append(path, n)
		onPath[n] = true
		for _, m := range adj[n] {
			if onPath[m] {
				// Cycle: path from m..n plus edge n->m.
				start := 0
				for i, p := range path {
					if p == m {
						start = i
						break
					}
				}
				cyc := append(append([]string(nil), path[start:]...), m)
				diags = append(diags, r.cycleDiag(cyc, edges, reported)...)
				continue
			}
			dfs(m)
		}
		onPath[n] = false
		path = path[:len(path)-1]
	}
	for _, n := range nodes {
		dfs(n)
	}
	return diags
}

// cycleDiag renders one cycle (first == last) as a diagnostic, deduped
// by its canonical rotation.
func (r *lockOrder) cycleDiag(cyc []string, edges map[[2]string]loEdge, reported map[string]bool) []Diagnostic {
	ring := cyc[:len(cyc)-1]
	// Canonical rotation: start at the smallest key.
	min := 0
	for i := range ring {
		if ring[i] < ring[min] {
			min = i
		}
	}
	canon := append(append([]string(nil), ring[min:]...), ring[:min]...)
	id := strings.Join(canon, " -> ")
	if reported[id] {
		return nil
	}
	reported[id] = true

	var parts []string
	var first loEdge
	for i := range canon {
		from, to := canon[i], canon[(i+1)%len(canon)]
		e := edges[[2]string{from, to}]
		if i == 0 {
			first = e
		}
		where := fmt.Sprintf("%v in %s", e.fi.Pkg.Position(e.at.Pos()), e.fi.Name())
		if e.via != "" {
			where += " via " + e.via
		}
		parts = append(parts, fmt.Sprintf("%s -> %s (%s)", from, to, where))
	}
	return []Diagnostic{{
		Pos:  first.fi.Pkg.Position(first.at.Pos()),
		Rule: r.Name(),
		Message: "lock-order cycle, a latent deadlock when these paths interleave: " +
			strings.Join(parts, "; ") + "; pick one global order and release before crossing layers",
	}}
}
