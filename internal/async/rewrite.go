package async

import (
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/schema"
)

// Rewrite converts a conventional query plan into an asynchronous-iteration
// plan, implementing the three-step algorithm of Section 4.5:
//
//  1. Insertion — every EVScan becomes an AEVScan with a ReqSync directly
//     above it;
//  2. Percolation — each ReqSync is pulled up past non-clashing operators,
//     hoisting clashing selections first and rewriting clashing joins as a
//     selection over a cross-product;
//  3. Consolidation — adjacent ReqSyncs merge, unioning their attribute
//     sets.
//
// The input plan comes from an optimizer that "knows nothing about
// asynchronous iteration"; the output plan is executable by the same
// iterator engine, since AEVScan and ReqSync obey the standard interface.
func Rewrite(root exec.Operator, pump *Pump) exec.Operator {
	root = insert(root, pump)
	root = percolateAll(root)
	root = consolidate(root)
	return root
}

// RewriteInsertOnly performs only step 1 (Insertion), leaving each ReqSync
// directly above its AEVScan. The plan is correct but gains no concurrency
// across outer tuples — each dependent join still blocks per binding. It
// exists as the ablation baseline showing that percolation, not mere
// asynchrony, is what buys the paper's speedups.
func RewriteInsertOnly(root exec.Operator, pump *Pump) exec.Operator {
	return insert(root, pump)
}

// ---------------------------------------------------------------------------
// Step 1: Insertion

// insert replaces EVScans with AEVScans and places a ReqSync directly
// above each ("no operations occur between each asynchronous call and the
// blocking operator that waits for its completion" — trivially correct).
func insert(op exec.Operator, pump *Pump) exec.Operator {
	for i, c := range op.Children() {
		op.SetChild(i, insert(c, pump))
	}
	if ev, ok := op.(*exec.EVScan); ok {
		aev := FromEVScan(ev, pump)
		return NewReqSync(aev, pump, aev.FilledAttrs())
	}
	return op
}

// ---------------------------------------------------------------------------
// Step 2: Percolation

// percolateAll pulls every ReqSync as high as its clashes allow. The order
// in which ReqSyncs are processed only affects the relative order of
// adjacent ReqSyncs, which consolidation erases (Section 4.5.2).
func percolateAll(root exec.Operator) exec.Operator {
	for _, rs := range collectReqSyncs(root) {
		root = percolate(root, rs)
	}
	return root
}

func collectReqSyncs(op exec.Operator) []*ReqSync {
	var out []*ReqSync
	if rs, ok := op.(*ReqSync); ok {
		out = append(out, rs)
	}
	for _, c := range op.Children() {
		out = append(out, collectReqSyncs(c)...)
	}
	return out
}

// percolate pulls one ReqSync up the plan until it reaches the root or a
// clashing operator it cannot move past.
func percolate(root exec.Operator, rs *ReqSync) exec.Operator {
	for {
		parent, idx := findParent(root, rs)
		if parent == nil {
			return root // rs is the root
		}
		switch p := parent.(type) {
		case *ReqSync:
			// Adjacent ReqSyncs commute; leave ordering to consolidation.
			return root

		case *exec.Filter:
			if !expr.References(p.Pred, rs.A) {
				root = swapUp(root, parent, rs)
				continue
			}
			// Clashing selection: pull the selection above ITS parent
			// first when legal ("if O is a projection or selection, we can
			// pull O above its parent first"), then retry. When several
			// clashing selections are stacked directly on the ReqSync
			// (e.g. a hoisted web filter plus a join→σ(×) selection),
			// hoist the TOPMOST of the stack — hoisting the immediate
			// parent would just swap two clashing selections with each
			// other forever.
			top := p
			for {
				gp, _ := findParent(root, top)
				f, ok := gp.(*exec.Filter)
				if !ok || !expr.References(f.Pred, rs.A) {
					break
				}
				top = f
			}
			// Hoist only past operators the ReqSync could itself follow.
			// If the stack's parent blocks the ReqSync anyway (a dependent
			// join binding one of rs.A, a sort keyed on one), hoisting is a
			// pure pessimization: the ReqSync still rests here, while the
			// selection — which could have applied before the blocker —
			// would now apply above it, issuing extra web calls below any
			// later dependent join.
			if gp, gidx := findParent(root, top); gp != nil && blocksReqSync(gp, gidx, rs) {
				return root
			}
			if hoisted, newRoot := hoistAbove(root, top); hoisted {
				root = newRoot
				continue
			}
			return root

		case *exec.Project:
			if projectClashes(p, rs.A) {
				return root
			}
			root = swapUp(root, parent, rs)
			continue

		case *exec.Sort:
			if intersects(p.KeyAttrs(), rs.A) {
				return root
			}
			root = swapUp(root, parent, rs)
			continue

		case *exec.NestedLoopJoin:
			if p.Pred != nil && expr.References(p.Pred, rs.A) {
				// Clashing join: "rewrite it as a selection over a
				// cross-product" (Section 4.5.2), then continue pulling —
				// the ReqSync passes the cross-product and stops below the
				// new selection (Figure 8).
				root = rewriteJoinAsSelection(root, p)
				continue
			}
			root = swapUp(root, parent, rs)
			continue

		case *exec.HashJoin:
			if intersects(hashJoinRefs(p), rs.A) {
				// A hash join whose keys (or residual) would interpret
				// placeholder values is a clash. Fall back to the paper's
				// join→σ(×) rewrite — the full predicate as a selection
				// over a predicate-free nested loop — then continue: the
				// ReqSync passes the cross-product and stops below the new
				// selection, exactly as for a clashing NestedLoopJoin.
				root = rewriteHashJoinAsSelection(root, p)
				continue
			}
			// Non-clashing keys: placeholders merely ride through the
			// build/probe tuples, to be settled above.
			root = swapUp(root, parent, rs)
			continue

		case *exec.UnionAll:
			// Bag union neither interprets values nor counts tuples — the
			// explicitly non-clashing operator of Section 4.5.2's union
			// rewrite ("a 'Select Distinct' over a non-clashing bag union").
			root = swapUp(root, parent, rs)
			continue

		case *exec.DependentJoin:
			// Pulling past a dependent join is illegal only when the join
			// feeds rs.A attributes to its right subtree as bindings (the
			// subtree would see placeholders). That can only happen when rs
			// is the left input.
			if idx == 0 && intersects(outerRefs(p.Right), rs.A) {
				return root
			}
			root = swapUp(root, parent, rs)
			continue

		default:
			// Aggregate, Distinct, Limit (existential), HashSemiJoin (its
			// output multiplicity is an existence decision), and any
			// unknown operator clash unconditionally (Section 4.5.2,
			// case 3).
			return root
		}
	}
}

// projectClashes reports whether a projection depends on, or removes, any
// attribute the ReqSync fills: computed expressions over rs.A interpret
// placeholder values (case 1), and projecting a placeholder away breaks
// tuple cancellation/generation (case 2).
func projectClashes(p *exec.Project, a map[schema.AttrID]bool) bool {
	kept := make(map[schema.AttrID]bool)
	for _, e := range p.Exprs {
		if cr, ok := e.(*expr.ColRef); ok {
			kept[cr.ID] = true
			continue
		}
		if expr.References(e, a) {
			return true // computed expression needs the real value
		}
	}
	for id := range a {
		if !kept[id] {
			return true // placeholder attribute projected away
		}
	}
	return false
}

// blocksReqSync reports whether rs could never percolate past p from
// child position idx: a dependent join feeding rs.A attributes to its
// right subtree as bindings, or a sort keyed on an attribute rs fills.
// (Operators that clash unconditionally — projections, aggregates,
// distincts, semi-joins — never accept a hoist in the first place.)
func blocksReqSync(p exec.Operator, idx int, rs *ReqSync) bool {
	switch o := p.(type) {
	case *exec.DependentJoin:
		return idx == 0 && intersects(outerRefs(o.Right), rs.A)
	case *exec.Sort:
		return intersects(o.KeyAttrs(), rs.A)
	}
	return false
}

// hoistAbove tries to move a clashing Filter one level up (above its own
// parent), returning the possibly-new root. Filters commute with other
// filters, joins, cross-products, and sorts; they cannot be hoisted above
// projections that drop their columns, aggregates, distincts, or limits.
func hoistAbove(root exec.Operator, f *exec.Filter) (bool, exec.Operator) {
	parent, _ := findParent(root, f)
	if parent == nil {
		return false, root
	}
	switch p := parent.(type) {
	case *exec.Filter, *exec.NestedLoopJoin, *exec.DependentJoin, *exec.Sort, *exec.HashJoin:
		// (Not HashSemiJoin: its output drops the build side's columns, so
		// a filter under its right input cannot move above it.)
		_ = p
		return true, swapUp(root, parent, f)
	default:
		return false, root
	}
}

// rewriteJoinAsSelection replaces a predicated nested-loop join with a
// Filter over the predicate-free join (a cross-product), preserving
// semantics while unblocking ReqSync pull-up.
func rewriteJoinAsSelection(root exec.Operator, j *exec.NestedLoopJoin) exec.Operator {
	parent, idx := findParent(root, j)
	sel := exec.NewFilter(j, j.Pred)
	j.Pred = nil
	if parent == nil {
		return sel
	}
	parent.SetChild(idx, sel)
	return root
}

// rewriteHashJoinAsSelection replaces a clashing hash join with a Filter
// over a predicate-free nested loop (a cross-product) carrying the hash
// join's reconstructed predicate — the same join→σ(×) transformation,
// with the hash algorithm abandoned because its build/probe keys would
// interpret placeholder values.
func rewriteHashJoinAsSelection(root exec.Operator, j *exec.HashJoin) exec.Operator {
	parent, idx := findParent(root, j)
	cross := exec.NewNestedLoopJoin(j.Left, j.Right, nil)
	sel := exec.NewFilter(cross, j.FullPredicate())
	if parent == nil {
		return sel
	}
	parent.SetChild(idx, sel)
	return root
}

// hashJoinRefs collects every attribute a hash join's keys and residual
// reference.
func hashJoinRefs(j *exec.HashJoin) map[schema.AttrID]bool {
	set := make(map[schema.AttrID]bool)
	exec.Refs(j, set)
	return set
}

// ---------------------------------------------------------------------------
// Step 3: Consolidation

// consolidate merges adjacent ReqSync pairs bottom-up, unioning their
// filled-attribute sets: "a single ReqSync operator can manage multiple
// placeholder values in tuples" (Section 4.5.3).
func consolidate(op exec.Operator) exec.Operator {
	for i, c := range op.Children() {
		op.SetChild(i, consolidate(c))
	}
	if rs, ok := op.(*ReqSync); ok {
		if inner, ok := rs.Child.(*ReqSync); ok {
			for id := range inner.A {
				rs.A[id] = true
			}
			rs.Child = inner.Child
			return consolidate(rs) // a third adjacent ReqSync may follow
		}
	}
	return op
}

// ---------------------------------------------------------------------------
// Tree utilities

// findParent locates target's parent and child index in the plan tree.
func findParent(root, target exec.Operator) (exec.Operator, int) {
	for i, c := range root.Children() {
		if c == target {
			return root, i
		}
		if p, idx := findParent(c, target); p != nil {
			return p, idx
		}
	}
	return nil, -1
}

// swapUp exchanges a single-child operator (child) with its parent:
// parent's slot receives child's subtree, child becomes parent's parent.
// It returns the (possibly new) root.
func swapUp(root, parent exec.Operator, child exec.Operator) exec.Operator {
	grand, gidx := findParent(root, parent)
	_, cidx := func() (exec.Operator, int) {
		for i, c := range parent.Children() {
			if c == child {
				return parent, i
			}
		}
		panic("swapUp: child not under parent")
	}()
	kids := child.Children()
	if len(kids) != 1 {
		panic("swapUp: child must have exactly one input")
	}
	parent.SetChild(cidx, kids[0])
	child.SetChild(0, parent)
	if grand == nil {
		return child
	}
	grand.SetChild(gidx, child)
	return root
}

// intersects reports whether the two attribute sets share an element.
func intersects(a, b map[schema.AttrID]bool) bool {
	for id := range a {
		if b[id] {
			return true
		}
	}
	return false
}

// outerRefs collects the attributes a subtree references but does not
// itself produce — its correlated (dependent-join) inputs.
func outerRefs(op exec.Operator) map[schema.AttrID]bool {
	refs := make(map[schema.AttrID]bool)
	produced := make(map[schema.AttrID]bool)
	collectRefs(op, refs, produced)
	for id := range produced {
		delete(refs, id)
	}
	return refs
}

func collectRefs(op exec.Operator, refs, produced map[schema.AttrID]bool) {
	for _, c := range op.Schema().Cols {
		produced[c.ID] = true
	}
	exec.Refs(op, refs)
	for _, c := range op.Children() {
		collectRefs(c, refs, produced)
	}
}
