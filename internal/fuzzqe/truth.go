package fuzzqe

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/types"
	"repro/internal/vtab"
)

// Truth is the offline evaluation of a QuerySpec: the exact result
// multiset plus the call and settlement counts each plan regime is
// expected to exhibit.
//
// SyncCalls models the synchronous plan, where every filter runs at the
// earliest point its columns exist (the planner consumes each conjunct
// at the first FROM entry that can evaluate it) and each web join
// expands its results inline.
//
// AsyncCalls and AsyncSettled* model the percolated/consolidated plan
// (see evalAsync for the full dataflow):
//   - filters referencing a web output column hoist above the ReqSync
//     cluster they clash with, so they stop dropping rows below it;
//   - web results patch and expand tuples only at a ReqSync, so a later
//     web join sees one pre-expansion tuple per outer row — unless some
//     dependent join binds an earlier join's URL, which pins the whole
//     ReqSync cluster below it and settles everything pending there;
//   - a call settles only if some tuple carrying its placeholder
//     reaches a ReqSync; stored-side joins and filters that eliminate
//     every carrier below the settlement point leave the call
//     issued-but-discarded, so AsyncSettled* <= AsyncCalls.
//
// Settlement differs between the nested-loop and hash plans in exactly
// one shape: when the planner turns the final dimension join of a
// DISTINCT query into a hash semi-join, that probe clashes
// unconditionally and ends up above the ReqSync, so its dropped rows
// still settle — while the nested-loop plan keeps the same join below
// the ReqSync. Hence two predictions.
//
// WarmCalls models the same asynchronous plan when the result cache
// answers every call at registration: filters stay where the rewrite put
// them, but each web join expands, or drops, its outer tuple on the spot,
// as in the synchronous plan, so a later web join is bound once per
// expanded tuple.
type Truth struct {
	Multiset         map[string]int
	SyncCalls        int64
	AsyncCalls       int64
	AsyncSettledNLJ  int64
	AsyncSettledHash int64
	WarmCalls        int64
}

// truthRow is one partial join result: qualified column name → value.
type truthRow map[string]types.Value

// Truth evaluates the spec over the wide rows and the (memoized) websim
// corpus, without the query engine.
func (e *Env) Truth(spec *QuerySpec) (*Truth, error) {
	syncRows, syncCalls, err := e.evalSync(spec)
	if err != nil {
		return nil, err
	}
	asyncCalls, settledNLJ, err := e.evalAsync(spec, false, false)
	if err != nil {
		return nil, err
	}
	_, settledHash, err := e.evalAsync(spec, true, false)
	if err != nil {
		return nil, err
	}
	warmCalls, _, err := e.evalAsync(spec, true, true)
	if err != nil {
		return nil, err
	}
	ms := make(map[string]int)
	for _, r := range syncRows {
		vals := make([]types.Value, len(spec.Proj))
		for i, col := range spec.Proj {
			v, ok := r[col]
			if !ok {
				return nil, fmt.Errorf("truth: projection column %s not produced", col)
			}
			vals[i] = v
		}
		key := EncodeRow(vals)
		if spec.Distinct {
			ms[key] = 1
		} else {
			ms[key]++
		}
	}
	return &Truth{
		Multiset:         ms,
		SyncCalls:        syncCalls,
		AsyncCalls:       asyncCalls,
		AsyncSettledNLJ:  settledNLJ,
		AsyncSettledHash: settledHash,
		WarmCalls:        warmCalls,
	}, nil
}

// evalSync folds the joins left to right over the wide rows, applying
// each filter at the earliest point its columns are available (the
// planner consumes every conjunct at the first FROM entry that can
// evaluate it) and expanding web results inline. It returns the
// surviving rows and the number of external calls issued — one per row
// reaching each web join; the harness runs without a result cache, so
// duplicate argument vectors are not coalesced.
func (e *Env) evalSync(spec *QuerySpec) ([]truthRow, int64, error) {
	joined := map[string]bool{"f": true}
	applied := make([]bool, len(spec.Filters))
	rows := e.seedRows(spec)

	applyReady := func() error {
		for i := range spec.Filters {
			f := &spec.Filters[i]
			if applied[i] {
				continue
			}
			if !joined[aliasOf(f.Col)] || (f.RCol != "" && !joined[aliasOf(f.RCol)]) {
				continue
			}
			applied[i] = true
			kept := rows[:0]
			for _, r := range rows {
				ok, err := evalFilter(f, r)
				if err != nil {
					return err
				}
				if ok {
					kept = append(kept, r)
				}
			}
			rows = kept
		}
		return nil
	}

	var calls int64
	if err := applyReady(); err != nil {
		return nil, 0, err
	}
	for i := range spec.Joins {
		j := &spec.Joins[i]
		var err error
		if j.IsWeb() {
			rows, calls, err = e.extendWeb(rows, j, calls)
			if err != nil {
				return nil, 0, err
			}
		} else {
			keyCol, ext, err := e.dimExt(j)
			if err != nil {
				return nil, 0, err
			}
			out := rows[:0]
			for _, r := range rows {
				k := r[keyCol]
				if k.IsNull() {
					continue
				}
				cols, ok := ext[k.AsString()]
				if !ok {
					continue
				}
				nr := cloneRow(r)
				for c, v := range cols {
					nr[c] = v
				}
				out = append(out, nr)
			}
			rows = out
		}
		joined[j.Alias] = true
		if err := applyReady(); err != nil {
			return nil, 0, err
		}
	}
	return rows, calls, nil
}

// seedRows scans the fact rows in the spec's Id range.
func (e *Env) seedRows(spec *QuerySpec) []truthRow {
	var rows []truthRow
	for _, w := range e.Wide {
		if w.ID < spec.IDLo || w.ID > spec.IDHi {
			continue
		}
		rows = append(rows, truthRow{
			"f.Id": types.Int(w.ID), "f.Sk": w.Sk, "f.Tk": w.Tk,
			"f.Mk": w.Mk, "f.V": types.Int(w.V),
		})
	}
	return rows
}

// dimExt returns the fact-side key column and, per dimension key, the
// columns a dimension join attaches. NULL keys and keys dangling from
// the dimension drop the row, exactly as the inner equi-join does.
func (e *Env) dimExt(j *Join) (string, map[string]map[string]types.Value, error) {
	ext := make(map[string]map[string]types.Value)
	switch j.Kind {
	case JoinState:
		for k, d := range e.StateDim {
			ext[k] = map[string]types.Value{
				j.Alias + ".Sk":  types.Str(k),
				j.Alias + ".Cap": types.Str(d.Cap),
				j.Alias + ".Pop": types.Int(d.Pop),
			}
		}
		return "f.Sk", ext, nil
	case JoinTerm:
		for k, g := range e.TermDim {
			ext[k] = map[string]types.Value{
				j.Alias + ".Tk":  types.Str(k),
				j.Alias + ".Grp": types.Int(g),
			}
		}
		return "f.Tk", ext, nil
	case JoinMovie:
		for k, l := range e.MovieDim {
			ext[k] = map[string]types.Value{
				j.Alias + ".Mk":  types.Str(k),
				j.Alias + ".Len": types.Int(l),
			}
		}
		return "f.Mk", ext, nil
	default:
		return "", nil, fmt.Errorf("truth: unknown dimension join kind %q", j.Kind)
	}
}

// pendingCall is one issued-but-unsettled external call riding on a
// tuple: the web join that issued it and the result rows that will patch
// or expand the tuple when a ReqSync settles it.
type pendingCall struct {
	id    int64
	alias string
	kind  string
	rows  []types.Tuple
}

// asyncRow pairs a partial join result with its pending calls. Rows
// copied below a settlement point (by a cross product) share pending
// call ids, mirroring Section 4.4's proliferated references.
type asyncRow struct {
	vals    truthRow
	pending []pendingCall
}

// evalAsync simulates the dataflow of the percolated/consolidated plan
// to predict its external-call count and total ReqSync settlements. The
// simulation mirrors what the rewrite actually produces:
//
//   - Every ReqSync percolates to the top of the plan (just below the
//     first clashing Project/Distinct/semi-join) unless a dependent
//     join binds its URL output — then it rests pinned directly below
//     that join — or it runs into an already-pinned cluster on the way
//     up and stacks onto it. A ReqSync registers a tuple under every
//     pending call the tuple carries, so the lowest ReqSync of a
//     cluster settles everything below it: web results patch and
//     expand tuples only at these settlement sites.
//   - A predicate referencing web outputs hoists with each ReqSync it
//     clashes with and comes to rest directly above the highest-resting
//     one — above the top cluster normally, at a pinned cluster when
//     every referenced ReqSync rests there, where it drops rows before
//     the pinning join issues its calls. (With three or more web joins
//     a mixed-rest predicate can land between two pins; the generator
//     caps queries at two web joins, where the max-rest rule is exact.)
//   - A dimension join whose predicate set picked up a web-referencing
//     conjunct is rewritten join→σ(×): the join runs as a cross product
//     at its original position and its whole predicate — the equi key
//     included — hoists as one unit.
//   - With hashVariant set, a DISTINCT query whose shape satisfies the
//     planner's semi-join rewrite runs its final dimension join above
//     the ReqSync cluster, so that probe no longer drops carriers
//     before settlement.
//
// A call settles only if some tuple carrying it survives to a
// settlement site; the returned settled count is the number of distinct
// such calls.
//
// With warm set every call is a cache hit: nothing is left pending, the
// web join itself attaches the result rows, and nothing settles.
func (e *Env) evalAsync(spec *QuerySpec, hashVariant, warm bool) (int64, int64, error) {
	n := len(spec.Joins)
	pos := map[string]int{"f": 0}
	webAlias := make(map[string]bool)
	for i := range spec.Joins {
		pos[spec.Joins[i].Alias] = i + 1
		if spec.Joins[i].IsWeb() {
			webAlias[spec.Joins[i].Alias] = true
		}
	}

	// Settlement sites. restAt[j] is the join index whose processing
	// settles web join j's calls (n = the top cluster). Ascending over
	// web joins: a ReqSync rests at the first URL-binding dependent join
	// above it or the first already-pinned cluster it runs into,
	// whichever is lower.
	restAt := make(map[int]int)
	var pinSites []int
	for j := range spec.Joins {
		if !spec.Joins[j].IsWeb() {
			continue
		}
		own := n
		for k := j + 1; k < n; k++ {
			if spec.Joins[k].IsWeb() && spec.Joins[k].BindCol == spec.Joins[j].Alias+".URL" {
				own = k
				break
			}
		}
		stack := n
		for _, p := range pinSites {
			if p > j && p < stack {
				stack = p
			}
		}
		r := own
		if stack < r {
			r = stack
		}
		restAt[j] = r
		if r == own && own < n {
			seen := false
			for _, p := range pinSites {
				if p == own {
					seen = true
				}
			}
			if !seen {
				pinSites = append(pinSites, own)
			}
		}
	}
	isPin := make([]bool, n)
	for _, p := range pinSites {
		isPin[p] = true
	}

	// Predicate units: the planner ANDs everything it consumes at one
	// FROM entry into a single filter or join predicate, and the rewrite
	// hoists that unit whole. unitSite[p] is the join index before which
	// entry p's unit applies (n = above the top cluster, -1 = not
	// deferred: it runs inside the entry itself).
	filterPos := make([]int, len(spec.Filters))
	for i := range spec.Filters {
		f := &spec.Filters[i]
		filterPos[i] = pos[aliasOf(f.Col)]
		if f.RCol != "" {
			if p := pos[aliasOf(f.RCol)]; p > filterPos[i] {
				filterPos[i] = p
			}
		}
	}
	unitSite := make([]int, n+1)
	cross := make([]bool, n)
	for p := 0; p <= n; p++ {
		unitSite[p] = -1
		site := -1
		for i := range spec.Filters {
			if filterPos[i] != p {
				continue
			}
			for _, col := range []string{spec.Filters[i].Col, spec.Filters[i].RCol} {
				if col == "" || !webAlias[aliasOf(col)] {
					continue
				}
				if r := restAt[pos[aliasOf(col)]-1]; r > site {
					site = r
				}
			}
		}
		// Deferred only when the settlement site is at or above the
		// entry. A unit whose referenced web joins all settle below it —
		// pinned there by an earlier URL binding — sees real values, never
		// clashes, and stays where the planner put it.
		if site >= p {
			unitSite[p] = site
			if p > 0 && !spec.Joins[p-1].IsWeb() {
				cross[p-1] = true
			}
		}
	}

	semiIdx := -1
	if hashVariant && semiEligible(spec) {
		semiIdx = n - 1
	}

	rows := make([]asyncRow, 0, NumFactRows)
	for _, v := range e.seedRows(spec) {
		rows = append(rows, asyncRow{vals: v})
	}
	var calls int64
	var nextID int64
	settledIDs := make(map[int64]bool)

	// filterRows drops rows failing one deferred or plain filter.
	filterRows := func(f *Filter) error {
		kept := rows[:0]
		for _, r := range rows {
			ok, err := evalFilter(f, r.vals)
			if err != nil {
				return err
			}
			if ok {
				kept = append(kept, r)
			}
		}
		rows = kept
		return nil
	}

	// applyUnit runs entry p's predicate unit: its filters plus, for a
	// crossed entry, the deferred equi key (the crossed dimension row
	// matches the fact key).
	applyUnit := func(p int) error {
		for i := range spec.Filters {
			if filterPos[i] != p {
				continue
			}
			if err := filterRows(&spec.Filters[i]); err != nil {
				return err
			}
		}
		if p > 0 && cross[p-1] {
			keyCol, ext, err := e.dimExt(&spec.Joins[p-1])
			if err != nil {
				return err
			}
			kept := rows[:0]
			for _, r := range rows {
				kv := r.vals[keyCol]
				if kv.IsNull() {
					continue
				}
				cols, ok := ext[kv.AsString()]
				if !ok {
					continue
				}
				match := true
				for c, v := range cols {
					if r.vals[c].Compare(v) != 0 {
						match = false
						break
					}
				}
				if match {
					kept = append(kept, r)
				}
			}
			rows = kept
		}
		return nil
	}

	// settleCluster models the lowest ReqSync of a cluster: every pending
	// call on a surviving row settles; WebCount patches its Count,
	// WebPages expands the row per result page (cancelling it on zero).
	settleCluster := func() {
		var out []asyncRow
		for _, r := range rows {
			expanded := []truthRow{r.vals}
			for _, p := range r.pending {
				settledIDs[p.id] = true
				var next []truthRow
				for _, v := range expanded {
					for _, res := range p.rows {
						next = append(next, withWebResult(v, p.alias, p.kind, res))
					}
				}
				expanded = next
			}
			for _, v := range expanded {
				out = append(out, asyncRow{vals: v})
			}
		}
		rows = out
	}

	if unitSite[0] >= 0 {
		return 0, 0, fmt.Errorf("truth: fact-only filter cannot reference a web alias")
	}
	if err := applyUnit(0); err != nil {
		return 0, 0, err
	}
	for k := range spec.Joins {
		j := &spec.Joins[k]
		if k == semiIdx {
			break // the semi-join probe sits above every ReqSync
		}
		if isPin[k] {
			// A pinned cluster sits directly below this dependent join:
			// everything pending settles, then the predicate units resting
			// on the cluster drop rows — all before this join's calls.
			settleCluster()
			for p := 0; p <= k; p++ {
				if unitSite[p] == k {
					if err := applyUnit(p); err != nil {
						return 0, 0, err
					}
				}
			}
		}
		if j.IsWeb() {
			def, err := e.VTabs.Resolve(j.vtabName())
			if err != nil {
				return 0, 0, err
			}
			var hit []asyncRow
			for ri := range rows {
				bind := rows[ri].vals[j.BindCol]
				if bind.IsNull() {
					return 0, 0, fmt.Errorf("truth: %s bound to NULL %s (generator must only bind non-NULL columns)", j.Alias, j.BindCol)
				}
				nextID++
				calls++
				res, err := e.webCall(def, j, bind.AsString())
				if err != nil {
					return 0, 0, err
				}
				if warm {
					for _, row := range res {
						v := withWebResult(rows[ri].vals, j.Alias, j.Kind, row)
						if ok, err := withinRankBounds(spec, j.Alias, v); err != nil {
							return 0, 0, err
						} else if ok {
							hit = append(hit, asyncRow{vals: v})
						}
					}
					continue
				}
				rows[ri].pending = append(rows[ri].pending, pendingCall{
					id: nextID, alias: j.Alias, kind: j.Kind, rows: res,
				})
			}
			if warm {
				rows = hit
			}
		} else if cross[k] {
			// join→σ(×): attach every dimension row its scan's predicate
			// lets through (a filter over the dimension alone never left
			// the scan, so it is not part of the unit); the predicate unit
			// applies at the settlement site it hoisted to.
			_, ext, err := e.dimExt(j)
			if err != nil {
				return 0, 0, err
			}
			keys := make([]string, 0, len(ext))
			for dk := range ext {
				keys = append(keys, dk)
			}
			sort.Strings(keys)
			var out []asyncRow
			for _, r := range rows {
				for _, dk := range keys {
					nr := asyncRow{
						vals:    cloneRow(r.vals),
						pending: append([]pendingCall(nil), r.pending...),
					}
					for c, v := range ext[dk] {
						nr.vals[c] = v
					}
					out = append(out, nr)
				}
			}
			rows = out
			for i := range spec.Filters {
				if filterPos[i] == k+1 && spec.Filters[i].singleTable() {
					if err := filterRows(&spec.Filters[i]); err != nil {
						return 0, 0, err
					}
				}
			}
		} else {
			keyCol, ext, err := e.dimExt(j)
			if err != nil {
				return 0, 0, err
			}
			out := rows[:0]
			for _, r := range rows {
				kv := r.vals[keyCol]
				if kv.IsNull() {
					continue
				}
				cols, ok := ext[kv.AsString()]
				if !ok {
					continue
				}
				nr := asyncRow{vals: cloneRow(r.vals), pending: r.pending}
				for c, v := range cols {
					nr.vals[c] = v
				}
				out = append(out, nr)
			}
			rows = out
		}
		if unitSite[k+1] < 0 {
			if err := applyUnit(k + 1); err != nil {
				return 0, 0, err
			}
		}
	}
	// Top settlement site: every call still carried by a surviving row
	// settles; nothing above it can change the totals.
	for _, r := range rows {
		for _, p := range r.pending {
			settledIDs[p.id] = true
		}
	}
	return calls, int64(len(settledIDs)), nil
}

// semiEligible mirrors the planner's trySemiJoin precondition over the
// spec grammar: DISTINCT, a final dimension join whose predicate set is
// pure cross-input equalities (so the hash join has no residual; a filter
// over the dimension alone runs inside its scan and leaves none), and a
// projection referencing nothing from that dimension.
func semiEligible(spec *QuerySpec) bool {
	n := len(spec.Joins)
	if !spec.Distinct || n == 0 || spec.Joins[n-1].IsWeb() {
		return false
	}
	last := spec.Joins[n-1].Alias
	for _, p := range spec.Proj {
		if aliasOf(p) == last {
			return false
		}
	}
	for i := range spec.Filters {
		f := &spec.Filters[i]
		if f.refsAlias(last) && !f.singleTable() && !(f.Op == "=" && f.RCol != "") {
			return false
		}
	}
	return true
}

// extendWeb performs one dependent web join: one external call per
// incoming row, expanding each row by the call's result rows (WebCount
// always yields exactly one; WebPages yields 0..RankLimit rows, dropping
// the row on 0 as the join does).
func (e *Env) extendWeb(rows []truthRow, j *Join, calls int64) ([]truthRow, int64, error) {
	def, err := e.VTabs.Resolve(j.vtabName())
	if err != nil {
		return nil, 0, err
	}
	var out []truthRow
	for _, r := range rows {
		bind := r[j.BindCol]
		if bind.IsNull() {
			return nil, 0, fmt.Errorf("truth: %s bound to NULL %s (generator must only bind non-NULL columns)", j.Alias, j.BindCol)
		}
		calls++
		results, err := e.webCall(def, j, bind.AsString())
		if err != nil {
			return nil, 0, err
		}
		for _, res := range results {
			out = append(out, withWebResult(r, j.Alias, j.Kind, res))
		}
	}
	return out, calls, nil
}

// webCall issues (or replays from the memo) one virtual-table call with
// the same argument vector the planner constructs: the default SearchExp
// over the bound term indices, T1 = the binding value, T2 = the optional
// constant, remaining terms NULL, and the rank limit for WebPages.
func (e *Env) webCall(def *vtab.Def, j *Join, t1 string) ([]types.Tuple, error) {
	src := vtab.NewSource(def)
	boundIdx := []int{1}
	if j.T2Const != "" {
		boundIdx = append(boundIdx, 2)
	}
	args := make([]types.Value, 0, def.NumInputs()+1)
	args = append(args, types.Str(def.DefaultSearchExp(boundIdx)))
	args = append(args, types.Str(t1))
	if j.T2Const != "" {
		args = append(args, types.Str(j.T2Const))
	} else {
		args = append(args, types.Null())
	}
	for i := 3; i <= vtab.MaxTerms; i++ {
		args = append(args, types.Null())
	}
	if j.Kind == JoinWebPages {
		args = append(args, types.Int(int64(j.RankLimit)))
	}
	key := string(src.AppendKey(nil, args))
	if e.webMemo == nil {
		e.webMemo = make(map[string][]types.Tuple)
	}
	if rows, ok := e.webMemo[key]; ok {
		return rows, nil
	}
	rows, err := src.Call(key)()
	if err != nil {
		return nil, err
	}
	e.webMemo[key] = rows
	return rows, nil
}

// evalFilter evaluates one restricted conjunct over a row with SQL
// three-valued semantics: a NULL operand in a comparison drops the row.
func evalFilter(f *Filter, r truthRow) (bool, error) {
	lv, ok := r[f.Col]
	if !ok {
		return false, fmt.Errorf("truth: filter column %s not available", f.Col)
	}
	switch f.Op {
	case "isnull":
		return lv.IsNull(), nil
	case "isnotnull":
		return !lv.IsNull(), nil
	}
	var rv types.Value
	switch {
	case f.RCol != "":
		rv, ok = r[f.RCol]
		if !ok {
			return false, fmt.Errorf("truth: filter column %s not available", f.RCol)
		}
	case f.IntVal != nil:
		rv = types.Int(*f.IntVal)
	case f.StrVal != nil:
		rv = types.Str(*f.StrVal)
	default:
		rv = types.Null()
	}
	if lv.IsNull() || rv.IsNull() {
		return false, nil
	}
	cmp := lv.Compare(rv)
	switch f.Op {
	case "=":
		return cmp == 0, nil
	case "<>":
		return cmp != 0, nil
	case "<":
		return cmp < 0, nil
	case "<=":
		return cmp <= 0, nil
	case ">":
		return cmp > 0, nil
	case ">=":
		return cmp >= 0, nil
	default:
		return false, fmt.Errorf("truth: unknown filter op %q", f.Op)
	}
}

// withinRankBounds applies the conjuncts the planner folds into a
// WebPages call's rank limit instead of planning a filter for them —
// alias.Rank <= or < a constant — so that they hold from the call on.
func withinRankBounds(spec *QuerySpec, alias string, r truthRow) (bool, error) {
	for i := range spec.Filters {
		f := &spec.Filters[i]
		if f.Col != alias+".Rank" || f.IntVal == nil || (f.Op != "<=" && f.Op != "<") {
			continue
		}
		if ok, err := evalFilter(f, r); err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

// withWebResult returns a copy of r extended by one result row of the web
// join alias.
func withWebResult(r truthRow, alias, kind string, res types.Tuple) truthRow {
	nr := cloneRow(r)
	if kind == JoinWebCount {
		nr[alias+".Count"] = res[0]
	} else {
		nr[alias+".URL"] = res[0]
		nr[alias+".Rank"] = res[1]
		nr[alias+".Date"] = res[2]
	}
	return nr
}

func cloneRow(r truthRow) truthRow {
	nr := make(truthRow, len(r)+4)
	for k, v := range r {
		nr[k] = v
	}
	return nr
}

// EncodeRow renders a projected row as a canonical string for multiset
// comparison; kind tags keep Int(1) distinct from Str("1").
func EncodeRow(vals []types.Value) string {
	var b strings.Builder
	for i, v := range vals {
		if i > 0 {
			b.WriteByte(0x1f)
		}
		switch {
		case v.IsNull():
			b.WriteString("~")
		case v.Kind == types.KindString:
			b.WriteString("s")
			b.WriteString(v.S)
		default:
			b.WriteString("i")
			b.WriteString(v.String())
		}
	}
	return b.String()
}
