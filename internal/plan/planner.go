// Package plan lowers parsed SQL into executable operator trees.
//
// The planner follows the Redbase substrate's conventions (Section 5 of
// the WSQ/DSQ paper): the FROM-clause order fixes the join order and
// there is no cost-based plan search. One deliberate departure from the
// paper's substrate ("the only available join technique is nested-loop
// join"): when a stored-stored join predicate contains cross-input
// equality conjuncts and the build side has more than one row, the
// planner emits a HashJoin (and, under DISTINCT projections that need
// nothing from the build side, a HashSemiJoin) — output order and
// results are identical to the nested-loop plan by construction.
// Its one sophisticated job is virtual-table binding analysis (Section 3):
// for each WebCount/WebPages/WebFetch reference it identifies the equality
// predicates that bind the table's input columns — to constants or to
// columns of earlier FROM entries — turning them into the parameters of a
// dependent join over an EVScan, synthesizing the default SearchExp
// ("%1 near %2 near ... near %n") and the default Rank < 20 guard when the
// query does not supply them.
package plan

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/schema"
	"repro/internal/sqlparse"
	"repro/internal/types"
	"repro/internal/vtab"
)

// Planner lowers statements against a catalog and a virtual-table registry.
type Planner struct {
	Cat   *catalog.Catalog
	VTabs *vtab.Registry
	// DisableHashJoins forces every stored-stored join to the paper's
	// nested-loop algorithm (and suppresses the semi-join rewrite). The
	// plan-equivalence fuzzer (internal/fuzzqe) flips this to execute the
	// same query under both join strategies and compare the results.
	DisableHashJoins bool
}

// New builds a planner.
func New(cat *catalog.Catalog, vtabs *vtab.Registry) *Planner {
	return &Planner{Cat: cat, VTabs: vtabs}
}

// scope is one FROM entry's resolved schema.
type scope struct {
	alias  string
	schema *schema.Schema
	// virtual metadata (nil for stored tables)
	def *vtab.Def
	// stored table (nil for virtual tables)
	table *catalog.Table
	// preds are the WHERE conjuncts that read this stored table's columns
	// and no others: its scan's predicate.
	preds []expr.Expr
}

// PlanSelect lowers a SELECT statement to an operator tree.
func (p *Planner) PlanSelect(sel *sqlparse.Select) (exec.Operator, error) {
	if len(sel.From) == 0 {
		return nil, fmt.Errorf("FROM clause is required")
	}
	// Resolve FROM entries.
	scopes := make([]*scope, 0, len(sel.From))
	seen := make(map[string]bool)
	for _, ref := range sel.From {
		alias := ref.EffectiveAlias()
		key := strings.ToLower(alias)
		if seen[key] {
			return nil, fmt.Errorf("duplicate table alias %s", alias)
		}
		seen[key] = true
		if p.VTabs != nil && p.VTabs.IsVirtual(ref.Table) {
			def, err := p.VTabs.Resolve(ref.Table)
			if err != nil {
				return nil, err
			}
			scopes = append(scopes, &scope{alias: alias, schema: def.InstantiateSchema(alias), def: def})
			continue
		}
		t, ok := p.Cat.Get(ref.Table)
		if !ok {
			return nil, fmt.Errorf("unknown table %s", ref.Table)
		}
		scopes = append(scopes, &scope{alias: alias, schema: t.InstantiateSchema(alias), table: t})
	}

	// Lower WHERE into conjuncts.
	var conjuncts []conjunct
	if sel.Where != nil {
		w, err := p.lowerExpr(sel.Where, scopes)
		if err != nil {
			return nil, err
		}
		for _, c := range expr.SplitConjuncts(w) {
			conjuncts = append(conjuncts, conjunct{e: c, attrs: expr.Attrs(c)})
		}
	}

	// A conjunct over one stored table's columns runs inside that table's
	// scan, whatever its FROM position: no join sees a row it rejects.
	for k := range conjuncts {
		a := conjuncts[k].attrs
		var owner *scope
		reads := 0 // scopes the conjunct reads; every attribute is some scope's column
		for _, sc := range scopes {
			if referencesAny(a, sc.schema) {
				owner = sc
				reads++
			}
		}
		if reads == 1 && owner.table != nil {
			owner.preds = append(owner.preds, conjuncts[k].e)
			conjuncts[k].consumed = true
		}
	}

	// Build the join tree in FROM order.
	var cur exec.Operator
	avail := make(map[schema.AttrID]bool)
	for i, sc := range scopes {
		var err error
		cur, err = p.addFromEntry(cur, sc, i, scopes, conjuncts, avail)
		if err != nil {
			return nil, err
		}
		for _, col := range sc.schema.Cols {
			avail[col.ID] = true
		}
		// Attach every now-evaluable, unconsumed conjunct.
		var pending []expr.Expr
		for k := range conjuncts {
			c := &conjuncts[k]
			if c.consumed {
				continue
			}
			if attrsSubset(c.attrs, avail) {
				pending = append(pending, c.e)
				c.consumed = true
			}
		}
		if len(pending) > 0 {
			cur = exec.NewFilter(cur, expr.NewAnd(pending...))
		}
	}
	for _, c := range conjuncts {
		if !c.consumed {
			return nil, fmt.Errorf("predicate %s references unknown columns", c.e)
		}
	}

	// Aggregation.
	items := sel.Items
	hasAgg := len(sel.GroupBy) > 0
	for _, it := range items {
		if _, ok := it.Expr.(*sqlparse.FuncCall); ok {
			hasAgg = true
		}
	}
	var projSchemaSrc *schema.Schema // schema the projection resolves against
	if hasAgg {
		if sel.Star {
			return nil, fmt.Errorf("SELECT * cannot be combined with aggregation")
		}
		var err error
		cur, err = p.buildAggregate(cur, sel, scopes, &items)
		if err != nil {
			return nil, err
		}
		projSchemaSrc = cur.Schema()
	}

	// Projection.
	var outSchema *schema.Schema
	if sel.Star {
		outSchema = cur.Schema()
	} else {
		exprs := make([]expr.Expr, 0, len(items))
		cols := make([]schema.Column, 0, len(items))
		for i, it := range items {
			var e expr.Expr
			var err error
			if hasAgg {
				e, err = lowerAgainstSchema(it.Expr, projSchemaSrc)
			} else {
				e, err = p.lowerExpr(it.Expr, scopes)
			}
			if err != nil {
				return nil, err
			}
			exprs = append(exprs, e)
			cols = append(cols, projectionColumn(e, it, i))
		}
		outSchema = schema.New(cols...)
		cur = exec.NewProject(cur, exprs, outSchema)
	}

	// DISTINCT. An existence-only hash join underneath degrades to a
	// semi-join.
	if sel.Distinct {
		d := exec.NewDistinct(cur)
		if !p.DisableHashJoins {
			trySemiJoin(d)
		}
		cur = d
	}

	// ORDER BY (resolved against the projection's output, so aliases work).
	if len(sel.OrderBy) > 0 {
		keys := make([]exec.SortKey, 0, len(sel.OrderBy))
		for _, oi := range sel.OrderBy {
			e, err := lowerAgainstSchema(oi.Expr, outSchema)
			if err != nil {
				return nil, fmt.Errorf("ORDER BY: %w", err)
			}
			keys = append(keys, exec.SortKey{Expr: e, Desc: oi.Desc})
		}
		cur = exec.NewSort(cur, keys)
	}

	// LIMIT.
	if sel.Limit >= 0 {
		cur = exec.NewLimit(cur, sel.Limit)
	}
	pruneColumns(cur, cur.Schema().AttrIDs())
	return cur, nil
}

// pruneColumns is the required-attributes pass, the one place that decides
// what is cut: it walks the plan from the root with need, the attributes
// something at or above op reads, narrows every scan to the columns in it
// and every join to the columns in force above the join, so what no
// operator reads is never decoded, fetched from a call's row or copied
// into a joined row. Operators that pass their input's columns through add
// what their own expressions read; a Project or an Aggregate computes what
// it emits, so below it only its own expressions count; anything else —
// Distinct, which compares whole rows, a union, which aligns them by
// position — keeps every column of its inputs, as does the root of a
// SELECT *.
//
// It returns the carriers, which no join above op cuts: the columns of the
// virtual-table scans below op — a call's placeholder must reach the
// ReqSync the asynchronous rewrite percolates up, or the call is never
// settled — and what the operators over such a scan read, because a
// selection that clashes with that ReqSync is hoisted with it.
func pruneColumns(op exec.Operator, need map[schema.AttrID]bool) (carriers map[schema.AttrID]bool) {
	var join interface{ Narrow(map[schema.AttrID]bool) }
	var above map[schema.AttrID]bool // need as it stood above the join, with what its predicate reads in the joined row
	switch o := op.(type) {
	case *exec.TableScan:
		exec.Refs(o, need)
		o.Prune(need)
	case *exec.EVScan:
		o.Prune(need)
		return o.Out.AttrIDs()
	case *exec.Project, *exec.Aggregate:
		need = make(map[schema.AttrID]bool)
	case *exec.DependentJoin:
		exec.Refs(o.Right, need) // the call's parameters, read from the left's tuples
	case *exec.NestedLoopJoin:
		join, above = o, withAttrs(need, o.Pred)
	case *exec.HashJoin:
		join, above = o, withAttrs(need, o.Residual) // the keys are read from the inputs
	case *exec.Filter, *exec.Sort, *exec.Limit, *exec.HashSemiJoin:
	default:
		for _, c := range op.Children() {
			for _, col := range c.Schema().Cols {
				need[col.ID] = true
			}
		}
	}
	exec.Refs(op, need)
	for _, c := range op.Children() {
		for id := range pruneColumns(c, need) {
			if carriers == nil {
				carriers = make(map[schema.AttrID]bool)
			}
			carriers[id] = true
		}
	}
	if join != nil {
		for id := range carriers {
			above[id] = true
		}
		join.Narrow(above)
	}
	if len(carriers) > 0 {
		exec.Refs(op, carriers)
	}
	return carriers
}

// withAttrs returns a copy of set that also holds e's attributes.
func withAttrs(set map[schema.AttrID]bool, e expr.Expr) map[schema.AttrID]bool {
	out := make(map[schema.AttrID]bool, len(set))
	for id := range set {
		out[id] = true
	}
	if e != nil {
		e.CollectAttrs(out)
	}
	return out
}

// PlanUnion lowers a UNION of SELECTs. SQL UNION (without ALL) is planned
// as Distinct over a bag union — deliberately, because duplicate
// elimination clashes with ReqSync percolation while the bag union does
// not (Section 4.5.2 of the paper); the async rewriter then produces the
// paper's "Select Distinct over a non-clashing bag union" shape for free.
func (p *Planner) PlanUnion(u *sqlparse.Union) (exec.Operator, error) {
	if len(u.Terms) < 2 || len(u.All) != len(u.Terms)-1 {
		return nil, fmt.Errorf("malformed UNION")
	}
	var orderBy []sqlparse.OrderItem
	limit := -1
	var cur exec.Operator
	for i, term := range u.Terms {
		t := *term
		if i == len(u.Terms)-1 {
			// The final term's ORDER BY / LIMIT apply to the whole union.
			orderBy, limit = t.OrderBy, t.Limit
			t.OrderBy, t.Limit = nil, -1
		}
		op, err := p.PlanSelect(&t)
		if err != nil {
			return nil, fmt.Errorf("UNION term %d: %w", i+1, err)
		}
		if i == 0 {
			cur = op
			continue
		}
		ua, err := exec.NewUnionAll(cur, op)
		if err != nil {
			return nil, err
		}
		cur = ua
		if !u.All[i-1] {
			cur = exec.NewDistinct(cur)
		}
	}
	if len(orderBy) > 0 {
		keys := make([]exec.SortKey, 0, len(orderBy))
		for _, oi := range orderBy {
			e, err := lowerAgainstSchema(oi.Expr, cur.Schema())
			if err != nil {
				return nil, fmt.Errorf("UNION ORDER BY: %w", err)
			}
			keys = append(keys, exec.SortKey{Expr: e, Desc: oi.Desc})
		}
		cur = exec.NewSort(cur, keys)
	}
	if limit >= 0 {
		cur = exec.NewLimit(cur, limit)
	}
	return cur, nil
}

// conjunct is one WHERE predicate with a consumption mark.
type conjunct struct {
	e        expr.Expr
	attrs    map[schema.AttrID]bool // what e reads
	consumed bool
}

// addFromEntry extends the left-deep plan with one FROM entry.
func (p *Planner) addFromEntry(cur exec.Operator, sc *scope, idx int, scopes []*scope,
	conjuncts []conjunct, avail map[schema.AttrID]bool) (exec.Operator, error) {
	if sc.def != nil {
		ev, bindDesc, err := p.buildEVScan(sc, conjuncts, avail)
		if err != nil {
			return nil, err
		}
		if cur == nil {
			return ev, nil
		}
		return exec.NewDependentJoin(cur, ev, bindDesc), nil
	}
	scan := exec.NewTableScan(sc.table, sc.schema)
	scan.Pred = expr.NewAnd(sc.preds...)
	if cur == nil {
		return scan, nil
	}
	// Conjuncts evaluable over (cur ∪ scan) become the join predicate.
	joinAvail := make(map[schema.AttrID]bool, len(avail)+sc.schema.Len())
	for id := range avail {
		joinAvail[id] = true
	}
	for _, col := range sc.schema.Cols {
		joinAvail[col.ID] = true
	}
	var preds []expr.Expr
	for k := range conjuncts {
		c := &conjuncts[k]
		if c.consumed {
			continue
		}
		if attrsSubset(c.attrs, joinAvail) && referencesAny(c.attrs, sc.schema) {
			preds = append(preds, c.e)
			c.consumed = true
		}
	}
	// Equi conjuncts across the two inputs make the join hashable; the
	// exact row count (WSQ's stored relations are small reference tables)
	// gates out degenerate build sides where a hash table cannot beat
	// re-scanning.
	if !p.DisableHashJoins {
		if lk, rk, residual := splitEquiKeys(preds, avail, sc.schema); len(lk) > 0 && hashBuildWorthwhile(sc.table) {
			return exec.NewHashJoin(cur, scan, lk, rk, residual), nil
		}
	}
	return exec.NewNestedLoopJoin(cur, scan, expr.NewAnd(preds...)), nil
}

// splitEquiKeys partitions join conjuncts into cross-input equality
// pairs (left-side expression, right-side expression) and the non-equi
// residual. A conjunct qualifies as a key pair when it is a top-level
// `=` whose operands each reference columns of exactly one input.
func splitEquiKeys(preds []expr.Expr, leftAvail map[schema.AttrID]bool, right *schema.Schema) (lk, rk []expr.Expr, residual expr.Expr) {
	rightAvail := make(map[schema.AttrID]bool, right.Len())
	for _, col := range right.Cols {
		rightAvail[col.ID] = true
	}
	var rest []expr.Expr
	for _, pred := range preds {
		cmp, ok := pred.(*expr.Cmp)
		if !ok || cmp.Op != expr.EQ {
			rest = append(rest, pred)
			continue
		}
		la, ra := expr.Attrs(cmp.L), expr.Attrs(cmp.R)
		switch {
		case len(la) > 0 && len(ra) > 0 && attrsSubset(la, leftAvail) && attrsSubset(ra, rightAvail):
			lk = append(lk, cmp.L)
			rk = append(rk, cmp.R)
		case len(la) > 0 && len(ra) > 0 && attrsSubset(ra, leftAvail) && attrsSubset(la, rightAvail):
			lk = append(lk, cmp.R)
			rk = append(rk, cmp.L)
		default:
			rest = append(rest, pred)
		}
	}
	return lk, rk, expr.NewAnd(rest...)
}

// hashBuildWorthwhile reports whether a hash table over the build side
// can pay for itself: with zero or one stored row the nested loop's
// re-scan is already optimal.
func hashBuildWorthwhile(t *catalog.Table) bool {
	sc := t.Heap.NewScanner()
	defer sc.Close()
	for n := 0; n < 2; n++ {
		if _, _, ok, err := sc.Next(); err != nil || !ok {
			return false
		}
	}
	return true
}

// trySemiJoin rewrites Distinct(Project(HashJoin)) in place into
// Distinct(Project(HashSemiJoin)) when the join has no residual
// predicate and the projection references nothing from the build side:
// only existence of a match matters, and the duplicate multiplicity a
// semi-join erases was about to be erased by the DISTINCT anyway.
func trySemiJoin(d *exec.Distinct) {
	pr, ok := d.Child.(*exec.Project)
	if !ok {
		return
	}
	hj, ok := pr.Child.(*exec.HashJoin)
	if !ok || hj.Residual != nil {
		return
	}
	leftAvail := make(map[schema.AttrID]bool, hj.Left.Schema().Len())
	for _, col := range hj.Left.Schema().Cols {
		leftAvail[col.ID] = true
	}
	for _, e := range pr.Exprs {
		if !attrsSubset(expr.Attrs(e), leftAvail) {
			return
		}
	}
	pr.Child = exec.NewHashSemiJoin(hj.Left, hj.Right, hj.LeftKeys, hj.RightKeys)
}

// buildEVScan performs binding analysis for one virtual table reference
// and constructs its EVScan.
func (p *Planner) buildEVScan(sc *scope, conjuncts []conjunct, avail map[schema.AttrID]bool) (*exec.EVScan, string, error) {
	def := sc.def
	numInputs := def.NumInputs()
	inputIdx := make(map[schema.AttrID]int, numInputs)
	for i := 0; i < numInputs; i++ {
		inputIdx[sc.schema.Cols[i].ID] = i
	}
	var rankAttr schema.AttrID
	if def.Kind == vtab.KindWebPages {
		for _, col := range sc.schema.Cols {
			if col.Name == "Rank" {
				rankAttr = col.ID
			}
		}
	}

	bindings := make([]expr.Expr, numInputs)
	var bindDescs []string
	rankLimit := vtab.DefaultRankLimit

	for k := range conjuncts {
		c := &conjuncts[k]
		if c.consumed {
			continue
		}
		cmp, ok := c.e.(*expr.Cmp)
		if !ok {
			continue
		}
		// Input binding: INPUT = expr or expr = INPUT.
		if cmp.Op == expr.EQ {
			if bound, err := p.tryBind(cmp.L, cmp.R, inputIdx, bindings, avail, sc, &bindDescs); err != nil {
				return nil, "", err
			} else if bound {
				c.consumed = true
				continue
			}
			if bound, err := p.tryBind(cmp.R, cmp.L, inputIdx, bindings, avail, sc, &bindDescs); err != nil {
				return nil, "", err
			} else if bound {
				c.consumed = true
				continue
			}
		}
		// Rank limit: Rank <= k or Rank < k against a constant.
		if def.Kind == vtab.KindWebPages {
			if lim, ok := rankBound(cmp, rankAttr); ok {
				if lim < rankLimit {
					rankLimit = lim
				}
				c.consumed = true
				continue
			}
		}
	}

	// Assemble call-argument expressions.
	var inputs []expr.Expr
	switch def.Kind {
	case vtab.KindWebFetch:
		if bindings[0] == nil {
			return nil, "", fmt.Errorf("%s.URL must be bound by a constant or an earlier FROM table", sc.alias)
		}
		inputs = []expr.Expr{bindings[0]}
	default:
		var boundIdx []int
		for i := 1; i < numInputs; i++ {
			if bindings[i] != nil {
				boundIdx = append(boundIdx, i)
			}
		}
		searchExp := bindings[0]
		if searchExp == nil {
			if len(boundIdx) == 0 {
				return nil, "", fmt.Errorf("%s: no search terms bound; bind T1..Tn or SearchExp via equality with a constant or an earlier FROM table", sc.alias)
			}
			searchExp = expr.NewLiteral(types.Str(def.DefaultSearchExp(boundIdx)))
		}
		inputs = append(inputs, searchExp)
		for i := 1; i < numInputs; i++ {
			if bindings[i] != nil {
				inputs = append(inputs, bindings[i])
			} else {
				inputs = append(inputs, expr.NewLiteral(types.Null()))
			}
		}
		if def.Kind == vtab.KindWebPages {
			inputs = append(inputs, expr.NewLiteral(types.Int(int64(rankLimit))))
		}
	}

	return exec.NewEVScan(vtab.NewSource(def), inputs, sc.schema), strings.Join(bindDescs, ", "), nil
}

// tryBind attempts to interpret "lhs = rhs" as a binding of one of the
// virtual table's input columns (lhs) to an expression over constants and
// earlier FROM entries (rhs).
func (p *Planner) tryBind(lhs, rhs expr.Expr, inputIdx map[schema.AttrID]int,
	bindings []expr.Expr, avail map[schema.AttrID]bool, sc *scope, bindDescs *[]string) (bool, error) {
	cr, ok := lhs.(*expr.ColRef)
	if !ok {
		return false, nil
	}
	i, isInput := inputIdx[cr.ID]
	if !isInput {
		return false, nil
	}
	rhsAttrs := expr.Attrs(rhs)
	if !attrsSubset(rhsAttrs, avail) {
		// The binding references a column that is not yet available. If it
		// belongs to this very table or a later FROM entry, the join order
		// makes the input unbindable — a planning error in Redbase's
		// user-specified-join-order world.
		if _, selfRef := inputIdx[firstAttr(rhsAttrs)]; selfRef {
			return false, nil
		}
		return false, fmt.Errorf("input %s.%s is bound to %s, which is not available before %s in the FROM order",
			sc.alias, cr.Col.Name, rhs, sc.alias)
	}
	if bindings[i] != nil {
		return false, nil // already bound; keep the predicate as a filter
	}
	bindings[i] = rhs
	if len(rhsAttrs) > 0 {
		*bindDescs = append(*bindDescs, fmt.Sprintf("%s + %s.%s", rhs, sc.alias, cr.Col.Name))
	}
	return true, nil
}

func firstAttr(set map[schema.AttrID]bool) schema.AttrID {
	for id := range set {
		return id
	}
	return 0
}

// rankBound extracts a constant upper bound from "Rank <= k" / "Rank < k"
// (or the mirrored ">=/>" forms).
func rankBound(cmp *expr.Cmp, rankAttr schema.AttrID) (int, bool) {
	col, colLeft := cmp.L.(*expr.ColRef)
	lit, litRight := cmp.R.(*expr.Literal)
	op := cmp.Op
	if !colLeft || !litRight {
		col, colLeft = cmp.R.(*expr.ColRef)
		lit, litRight = cmp.L.(*expr.Literal)
		if !colLeft || !litRight {
			return 0, false
		}
		// k >= Rank means Rank <= k.
		switch op {
		case expr.GE:
			op = expr.LE
		case expr.GT:
			op = expr.LT
		default:
			return 0, false
		}
	}
	if col.ID != rankAttr {
		return 0, false
	}
	n, err := lit.Val.AsInt()
	if err != nil {
		return 0, false
	}
	switch op {
	case expr.LE:
		return int(n), true
	case expr.LT:
		return int(n) - 1, true
	default:
		return 0, false
	}
}

// buildAggregate lowers GROUP BY and aggregate select items into an
// Aggregate operator and rewrites the select items to reference its
// output. Aggregates are supported as whole select items (SELECT Name,
// COUNT(*) ... GROUP BY Name).
func (p *Planner) buildAggregate(cur exec.Operator, sel *sqlparse.Select, scopes []*scope,
	items *[]sqlparse.SelectItem) (exec.Operator, error) {
	var groupExprs []expr.Expr
	var groupCols []schema.Column
	groupKey := make(map[string]schema.Column)
	for _, g := range sel.GroupBy {
		e, err := p.lowerExpr(g, scopes)
		if err != nil {
			return nil, err
		}
		var col schema.Column
		if cr, ok := e.(*expr.ColRef); ok {
			col = cr.Col
		} else {
			col = schema.Column{ID: schema.NewAttrID(), Name: g.String(), Type: e.Type()}
		}
		groupExprs = append(groupExprs, e)
		groupCols = append(groupCols, col)
		groupKey[strings.ToLower(g.String())] = col
	}

	var aggs []exec.AggSpec
	newItems := make([]sqlparse.SelectItem, 0, len(*items))
	for i, it := range *items {
		fc, isAgg := it.Expr.(*sqlparse.FuncCall)
		if !isAgg {
			// Must match a GROUP BY expression.
			if _, ok := groupKey[strings.ToLower(it.Expr.String())]; !ok {
				return nil, fmt.Errorf("select item %s must appear in GROUP BY or be an aggregate", it.Expr)
			}
			newItems = append(newItems, it)
			continue
		}
		spec, err := p.lowerAggregate(fc, scopes, i)
		if err != nil {
			return nil, err
		}
		aggs = append(aggs, spec)
		name := it.Alias
		if name == "" {
			name = fc.String()
		}
		spec.OutCol.Name = name
		aggs[len(aggs)-1].OutCol.Name = name
		newItems = append(newItems, sqlparse.SelectItem{Expr: &sqlparse.Col{Name: name}, Alias: it.Alias})
	}
	*items = newItems
	return exec.NewAggregate(cur, groupExprs, groupCols, aggs), nil
}

// lowerAggregate converts one aggregate call into an AggSpec.
func (p *Planner) lowerAggregate(fc *sqlparse.FuncCall, scopes []*scope, ordinal int) (exec.AggSpec, error) {
	var fn exec.AggFunc
	switch strings.ToUpper(fc.Name) {
	case "COUNT":
		if fc.Star {
			fn = exec.AggCountStar
		} else {
			fn = exec.AggCount
		}
	case "SUM":
		fn = exec.AggSum
	case "MIN":
		fn = exec.AggMin
	case "MAX":
		fn = exec.AggMax
	case "AVG":
		fn = exec.AggAvg
	default:
		return exec.AggSpec{}, fmt.Errorf("unsupported aggregate %s", fc.Name)
	}
	spec := exec.AggSpec{Func: fn}
	outType := schema.TInt
	if !fc.Star {
		arg, err := p.lowerExpr(fc.Args[0], scopes)
		if err != nil {
			return exec.AggSpec{}, err
		}
		spec.Arg = arg
		switch fn {
		case exec.AggSum, exec.AggMin, exec.AggMax:
			outType = arg.Type()
		case exec.AggAvg:
			outType = schema.TFloat
		}
	}
	spec.OutCol = schema.Column{ID: schema.NewAttrID(), Name: fmt.Sprintf("agg%d", ordinal), Type: outType}
	return spec, nil
}

// projectionColumn derives the output column for one select item.
func projectionColumn(e expr.Expr, it sqlparse.SelectItem, i int) schema.Column {
	if cr, ok := e.(*expr.ColRef); ok {
		col := cr.Col
		if it.Alias != "" {
			col.Name = it.Alias
			col.Table = ""
		}
		return col
	}
	name := it.Alias
	if name == "" {
		name = fmt.Sprintf("col%d", i+1)
	}
	return schema.Column{ID: schema.NewAttrID(), Name: name, Type: e.Type()}
}

// lowerExpr resolves a parser expression against the FROM scopes.
func (p *Planner) lowerExpr(e sqlparse.Expr, scopes []*scope) (expr.Expr, error) {
	switch n := e.(type) {
	case *sqlparse.Lit:
		return expr.NewLiteral(n.Val), nil
	case *sqlparse.Col:
		col, err := resolveColumn(n, scopes)
		if err != nil {
			return nil, err
		}
		return expr.NewColRef(col), nil
	case *sqlparse.Unary:
		inner, err := p.lowerExpr(n.E, scopes)
		if err != nil {
			return nil, err
		}
		switch n.Op {
		case "NOT":
			return expr.NewNot(inner), nil
		case "-":
			return expr.NewArith(expr.Sub, expr.NewLiteral(types.Int(0)), inner), nil
		default:
			return nil, fmt.Errorf("unknown unary operator %s", n.Op)
		}
	case *sqlparse.Binary:
		l, err := p.lowerExpr(n.L, scopes)
		if err != nil {
			return nil, err
		}
		r, err := p.lowerExpr(n.R, scopes)
		if err != nil {
			return nil, err
		}
		switch n.Op {
		case "AND":
			return expr.NewAnd(l, r), nil
		case "OR":
			return expr.NewOr(l, r), nil
		case "=":
			return expr.NewCmp(expr.EQ, l, r), nil
		case "<>":
			return expr.NewCmp(expr.NE, l, r), nil
		case "<":
			return expr.NewCmp(expr.LT, l, r), nil
		case "<=":
			return expr.NewCmp(expr.LE, l, r), nil
		case ">":
			return expr.NewCmp(expr.GT, l, r), nil
		case ">=":
			return expr.NewCmp(expr.GE, l, r), nil
		case "+":
			return expr.NewArith(expr.Add, l, r), nil
		case "-":
			return expr.NewArith(expr.Sub, l, r), nil
		case "*":
			return expr.NewArith(expr.Mul, l, r), nil
		case "/":
			return expr.NewArith(expr.Div, l, r), nil
		default:
			return nil, fmt.Errorf("unknown operator %s", n.Op)
		}
	case *sqlparse.IsNull:
		inner, err := p.lowerExpr(n.E, scopes)
		if err != nil {
			return nil, err
		}
		return expr.NewIsNull(inner, n.Not), nil
	case *sqlparse.FuncCall:
		return nil, fmt.Errorf("aggregate %s is only allowed as a top-level select item", n)
	default:
		return nil, fmt.Errorf("unsupported expression %T", e)
	}
}

// resolveColumn finds a (possibly qualified) column across the FROM scopes.
func resolveColumn(c *sqlparse.Col, scopes []*scope) (schema.Column, error) {
	if c.Table != "" {
		for _, sc := range scopes {
			if strings.EqualFold(sc.alias, c.Table) {
				return sc.schema.Resolve("", c.Name)
			}
		}
		// No scope alias matches (e.g. ORDER BY over a projection schema):
		// resolve by the columns' own table qualifiers.
		for _, sc := range scopes {
			if col, matches := sc.schema.Lookup(c.Table, c.Name); matches == 1 {
				return col, nil
			}
		}
		return schema.Column{}, fmt.Errorf("unknown table or alias %s", c.Table)
	}
	var found schema.Column
	scopesWith := 0 // scopes that resolve the name to exactly one column
	for _, sc := range scopes {
		if col, matches := sc.schema.Lookup("", c.Name); matches == 1 {
			found = col
			scopesWith++
		}
	}
	switch scopesWith {
	case 0:
		return schema.Column{}, fmt.Errorf("unknown column %s", c.Name)
	case 1:
		return found, nil
	default:
		return schema.Column{}, fmt.Errorf("ambiguous column %s (qualify it with a table alias)", c.Name)
	}
}

// lowerAgainstSchema resolves a parser expression against a single flat
// schema (used for ORDER BY against the projection output and for
// post-aggregation select items).
func lowerAgainstSchema(e sqlparse.Expr, s *schema.Schema) (expr.Expr, error) {
	p := &Planner{}
	return p.lowerExpr(e, []*scope{{schema: s}})
}

// attrsSubset reports a ⊆ b.
func attrsSubset(a, b map[schema.AttrID]bool) bool {
	for id := range a {
		if !b[id] {
			return false
		}
	}
	return true
}

// referencesAny reports whether the attribute set touches any column of s.
func referencesAny(a map[schema.AttrID]bool, s *schema.Schema) bool {
	for _, col := range s.Cols {
		if a[col.ID] {
			return true
		}
	}
	return false
}
