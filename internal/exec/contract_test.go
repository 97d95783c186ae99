package exec

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/types"
)

// ---------------------------------------------------------------------------
// Operator lifecycle contract harness.
//
// Every exec operator must satisfy:
//   1. Open → drain → Close runs cleanly and Close reports no error.
//   2. Re-open after exhaustion yields the same rows (dependent joins
//      re-open their right subtree once per outer binding, so this is a
//      load-bearing property, not a nicety).
//   3. Close is idempotent: closing an already-closed tree is a no-op.
//   4. After an error at ANY point — a child failing in Open or at any row
//      position — closing the root must close every subtree (no leaked
//      open leaves) and a second Close must still be safe.
//   5. The pull contract: NextBatch(max) returns 1..max tuples when ok,
//      ok == false is sticky until re-Open, the rows do not depend on max
//      or on the context's batch size, and max < 1 is an error.
//   6. A window is read only until the producer's next NextBatch. The
//      harness leaf is the strictest producer the contract allows (the
//      scan, the filter and the hash join reuse their windows; the leaf
//      also destroys the tuples): it overwrites the window it handed out
//      last time before it produces the next, so a consumer that reads a
//      stale window — loop carried, or through a field it stored it in —
//      computes on sentinel tuples and fails every case above
//      (DESIGN.md §7).
//   7. A granted producer's tuples are read only until its next
//      NextBatch (see recycler). A granted leaf hands out copies of its
//      own and overwrites their values too at its next NextBatch, so a
//      consumer that grants and keeps a tuple anyway keeps sentinels; and
//      every case, granted by a consumer that copies at once
//      (TestOperatorContractGranted), yields the rows it yields ungranted.

var errInjected = errors.New("injected fault")

// faultOp wraps an operator with a configurable failure point and records
// whether its subtree is currently open. The fault is positioned by row,
// not by call: the batch before it is cut short so the failure lands after
// exactly failAfter rows whatever the batch size, mid-batch included.
type faultOp struct {
	inner     Operator
	failOpen  bool
	failClose bool  // Close of an open leaf fails: it could not release what it opened
	failAfter int   // fail once failAfter rows have been handed out; -1 = never
	rows      int   // rows handed out since Open
	window    Batch // what the last NextBatch returned: dead at the next one
	// granted is set by a grant and cleared by Close; grants counts them
	// over the leaf's life. lent holds the copies a granted leaf handed
	// out last, whose values die at its next NextBatch.
	granted bool
	grants  int
	lent    []types.Tuple
	open    bool
}

func newFault(inner Operator) *faultOp { return &faultOp{inner: inner, failAfter: -1} }

func (f *faultOp) Schema() *schema.Schema { return f.inner.Schema() }
func (f *faultOp) Open(ctx *Context) error {
	f.rows = 0
	if f.failOpen {
		return errInjected
	}
	if err := f.inner.Open(ctx); err != nil {
		return err
	}
	f.open = true
	return nil
}
func (f *faultOp) recycle() { f.granted, f.grants = true, f.grants+1 }

func (f *faultOp) NextBatch(ctx *Context, max int) (Batch, bool, error) {
	for i := range f.window {
		f.window[i] = staleTuple(len(f.window[i]))
	}
	for _, t := range f.lent {
		copy(t, staleTuple(len(t)))
	}
	f.window, f.lent = nil, nil
	if f.failAfter >= 0 {
		left := f.failAfter - f.rows
		if left <= 0 {
			return nil, false, errInjected
		}
		if max > left {
			max = left
		}
	}
	b, ok, err := f.inner.NextBatch(ctx, max)
	f.rows += len(b)
	// A window of the leaf's own: scribbling over the inner operator's
	// would corrupt a ValuesScan's rows for the re-open checks. For the
	// same reason a granted leaf lends copies.
	if !f.granted {
		f.window = append(f.window, b...)
		return f.window, ok, err
	}
	for _, t := range b {
		f.lent = append(f.lent, t.Clone())
	}
	f.window = append(f.window, f.lent...)
	return f.window, ok, err
}

// staleTuple is what a dead window holds: the row's width, so a stale
// read ends in wrong rows or a type error and not an index panic.
func staleTuple(width int) types.Tuple {
	t := make(types.Tuple, width)
	for i := range t {
		t[i] = types.Str(staleMark)
	}
	return t
}

const staleMark = "<stale window>"

// checkFresh fails the test if any output row carries a dead window's
// sentinel. The suite compares an operator with itself (re-open, other
// batch sizes), and a stale read is wrong the same way every time.
func checkFresh(t *testing.T, rows []types.Tuple) {
	t.Helper()
	for _, r := range rows {
		if strings.Contains(r.String(), staleMark) {
			t.Fatalf("output row %v was computed from a window its producer had already replaced", r)
		}
	}
}
func (f *faultOp) Close() error {
	err := f.inner.Close()
	if f.failClose && f.open {
		err = errors.Join(err, errInjected)
	}
	f.open, f.granted = false, false
	return err
}
func (f *faultOp) Children() []Operator { return []Operator{f.inner} }
func (f *faultOp) SetChild(i int, op Operator) {
	if i != 0 {
		panic("faultOp has a single child")
	}
	f.inner = op
}
func (f *faultOp) Name() string     { return "Fault" }
func (f *faultOp) Describe() string { return "" }

// contractCase builds a fresh operator tree plus the fault wrappers buried
// in it. mk must return an independent tree on every call.
type contractCase struct {
	name string
	mk   func() (Operator, []*faultOp)
}

func intRows(vals ...int64) []types.Tuple {
	out := make([]types.Tuple, len(vals))
	for i, v := range vals {
		out[i] = types.Tuple{types.Int(v)}
	}
	return out
}

// contractTable is a stored (Id INT, N INT) table of 40 rows with N = Id
// mod 3, so a predicate on N rejects rows in between the ones it keeps.
func contractTable(t *testing.T) *catalog.Table {
	t.Helper()
	cat, err := catalog.Open(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cat.Close() })
	tab, err := cat.Create("T", []catalog.ColumnDef{{Name: "Id", Type: schema.TInt}, {Name: "N", Type: schema.TInt}})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 40; i++ {
		if _, err := tab.Insert(types.Tuple{types.Int(i), types.Int(i % 3)}); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

// wideJoinInputs are two fault-wrapped two-column inputs for the narrowed
// joins: L(K, N) and R(K, M).
func wideJoinInputs() (lf, rf *faultOp, lk, ln, rk, rm schema.Column) {
	lk, ln = strCol("L", "K"), intCol("L", "N")
	rk, rm = strCol("R", "K"), intCol("R", "M")
	lf = newFault(NewValuesScan(schema.New(lk, ln), []types.Tuple{
		{types.Str("a"), types.Int(1)}, {types.Str("b"), types.Int(2)},
		{types.Str("a"), types.Int(3)}, {types.Str("c"), types.Int(4)},
	}))
	rf = newFault(NewValuesScan(schema.New(rk, rm), []types.Tuple{
		{types.Str("a"), types.Int(2)}, {types.Str("b"), types.Int(2)},
		{types.Str("a"), types.Int(5)}, {types.Str("d"), types.Int(0)},
	}))
	return
}

func attrSet(cols ...schema.Column) map[schema.AttrID]bool {
	set := make(map[schema.AttrID]bool)
	for _, c := range cols {
		set[c.ID] = true
	}
	return set
}

func contractCases(t *testing.T) []contractCase {
	tab := contractTable(t)
	pairSchema := func() (*schema.Schema, schema.Column, schema.Column) {
		a, b := strCol("T", "K"), intCol("T", "N")
		return schema.New(a, b), a, b
	}
	pairs := func(sc *schema.Schema) *ValuesScan {
		return NewValuesScan(sc, []types.Tuple{
			{types.Str("a"), types.Int(1)},
			{types.Str("b"), types.Int(2)},
			{types.Str("a"), types.Int(3)},
			{types.Str("c"), types.Int(2)},
		})
	}
	return []contractCase{
		{"ValuesScan", func() (Operator, []*faultOp) {
			sc, _, _ := pairSchema()
			return pairs(sc), nil
		}},
		{"TableScanPredicate", func() (Operator, []*faultOp) {
			sc := NewTableScan(tab, tab.InstantiateSchema(""))
			sc.Pred = expr.NewCmp(expr.GT, expr.NewColRef(sc.Out.Cols[1]), expr.NewLiteral(types.Int(0)))
			return sc, nil
		}},
		{"HashJoinNarrowed", func() (Operator, []*faultOp) {
			// Emits L.N and, for the residual, R.M; the keys are cut.
			lf, rf, lk, ln, rk, rm := wideJoinInputs()
			j := NewHashJoin(lf, rf, []expr.Expr{expr.NewColRef(lk)}, []expr.Expr{expr.NewColRef(rk)},
				expr.NewCmp(expr.LT, expr.NewColRef(ln), expr.NewColRef(rm)))
			j.Narrow(attrSet(ln, rm))
			return j, []*faultOp{lf, rf}
		}},
		{"NestedLoopJoinNarrowed", func() (Operator, []*faultOp) {
			lf, rf, lk, ln, _, rm := wideJoinInputs()
			j := NewNestedLoopJoin(lf, rf, expr.NewCmp(expr.LT, expr.NewColRef(ln), expr.NewColRef(rm)))
			j.Narrow(attrSet(lk, ln, rm))
			return j, []*faultOp{lf, rf}
		}},
		{"HashJoinNoColumns", func() (Operator, []*faultOp) {
			lf, rf, lk, _, rk, _ := wideJoinInputs()
			j := NewHashJoin(lf, rf, []expr.Expr{expr.NewColRef(lk)}, []expr.Expr{expr.NewColRef(rk)}, nil)
			j.Narrow(attrSet())
			return j, []*faultOp{lf, rf}
		}},
		{"CrossProductNoColumnsUnderJoin", func() (Operator, []*faultOp) {
			// The outer join's current left tuple is an empty row.
			lf, rf, _, _, _, _ := wideJoinInputs()
			inner := NewNestedLoopJoin(lf, rf, nil)
			inner.Narrow(attrSet())
			three := newFault(NewValuesScan(schema.New(intCol("X", "N")), intRows(7, 8, 9)))
			outer := NewNestedLoopJoin(inner, three, nil)
			outer.Narrow(attrSet())
			return outer, []*faultOp{lf, rf, three}
		}},
		{"Filter", func() (Operator, []*faultOp) {
			sc, _, n := pairSchema()
			f := newFault(pairs(sc))
			pred := expr.NewCmp(expr.GT, expr.NewColRef(n), expr.NewLiteral(types.Int(1)))
			return NewFilter(f, pred), []*faultOp{f}
		}},
		{"Project", func() (Operator, []*faultOp) {
			sc, _, n := pairSchema()
			f := newFault(pairs(sc))
			out := schema.New(intCol("P", "N2"))
			return NewProject(f, []expr.Expr{expr.NewArith(expr.Add, expr.NewColRef(n), expr.NewLiteral(types.Int(10)))}, out), []*faultOp{f}
		}},
		{"Sort", func() (Operator, []*faultOp) {
			sc, k, n := pairSchema()
			f := newFault(pairs(sc))
			return NewSort(f, []SortKey{{Expr: expr.NewColRef(n)}, {Expr: expr.NewColRef(k)}}), []*faultOp{f}
		}},
		{"Limit", func() (Operator, []*faultOp) {
			sc, _, _ := pairSchema()
			f := newFault(pairs(sc))
			return NewLimit(f, 2), []*faultOp{f}
		}},
		{"Distinct", func() (Operator, []*faultOp) {
			sc, k, _ := pairSchema()
			f := newFault(pairs(sc))
			out := schema.New(strCol("D", "K"))
			return NewDistinct(NewProject(f, []expr.Expr{expr.NewColRef(k)}, out)), []*faultOp{f}
		}},
		{"Aggregate", func() (Operator, []*faultOp) {
			sc, k, n := pairSchema()
			f := newFault(pairs(sc))
			return NewAggregate(f,
				[]expr.Expr{expr.NewColRef(k)},
				[]schema.Column{strCol("G", "K")},
				[]AggSpec{{Func: AggSum, Arg: expr.NewColRef(n), OutCol: intCol("G", "S")}}), []*faultOp{f}
		}},
		{"UnionAll", func() (Operator, []*faultOp) {
			la := intCol("L", "N")
			lf := newFault(NewValuesScan(schema.New(la), intRows(1, 2)))
			rf := newFault(NewValuesScan(schema.New(intCol("R", "N")), intRows(3)))
			u, err := NewUnionAll(lf, rf)
			if err != nil {
				panic(err)
			}
			return u, []*faultOp{lf, rf}
		}},
		{"NestedLoopJoin", func() (Operator, []*faultOp) {
			la, ra := intCol("L", "N"), intCol("R", "N")
			lf := newFault(NewValuesScan(schema.New(la), intRows(1, 2, 3)))
			rf := newFault(NewValuesScan(schema.New(ra), intRows(2, 3, 4)))
			pred := expr.NewCmp(expr.LT, expr.NewColRef(la), expr.NewColRef(ra))
			return NewNestedLoopJoin(lf, rf, pred), []*faultOp{lf, rf}
		}},
		{"HashJoin", func() (Operator, []*faultOp) {
			la, ra := intCol("L", "N"), intCol("R", "N")
			lf := newFault(NewValuesScan(schema.New(la), intRows(1, 2, 3)))
			rf := newFault(NewValuesScan(schema.New(ra), intRows(2, 3, 3, 4)))
			return NewHashJoin(lf, rf,
				[]expr.Expr{expr.NewColRef(la)}, []expr.Expr{expr.NewColRef(ra)}, nil), []*faultOp{lf, rf}
		}},
		{"HashSemiJoin", func() (Operator, []*faultOp) {
			la, ra := intCol("L", "N"), intCol("R", "N")
			lf := newFault(NewValuesScan(schema.New(la), intRows(1, 2, 3)))
			rf := newFault(NewValuesScan(schema.New(ra), intRows(2, 3, 3, 4)))
			return NewHashSemiJoin(lf, rf,
				[]expr.Expr{expr.NewColRef(la)}, []expr.Expr{expr.NewColRef(ra)}), []*faultOp{lf, rf}
		}},
		{"DependentJoin", func() (Operator, []*faultOp) {
			term := strCol("L", "Term")
			lf := newFault(NewValuesScan(schema.New(term), []types.Tuple{
				{types.Str("ab")}, {types.Str("xyz")},
			}))
			src := &fakeSource{name: "WC", rowsFor: func(arg string) []types.Tuple {
				return []types.Tuple{{types.Int(int64(len(arg)))}}
			}}
			ev := NewEVScan(src, []expr.Expr{expr.NewColRef(term)}, fakeSchema("V"))
			return NewDependentJoin(lf, ev, "V"), []*faultOp{lf}
		}},
		{"EVScan", func() (Operator, []*faultOp) {
			src := &fakeSource{name: "WC", rowsFor: func(arg string) []types.Tuple {
				return []types.Tuple{{types.Int(int64(len(arg)))}}
			}}
			return NewEVScan(src, []expr.Expr{expr.NewLiteral(types.Str("abc"))}, fakeSchema("V")), nil
		}},
		{"HashSemiJoinNullMultiKey", func() (Operator, []*faultOp) {
			lk, ln := strCol("L", "K"), intCol("L", "N")
			rk, rn := strCol("R", "K"), intCol("R", "N")
			lf := newFault(NewValuesScan(schema.New(lk, ln), []types.Tuple{
				{types.Str("a"), types.Int(1)},
				{types.Str("b"), types.Null()},
				{types.Null(), types.Int(2)},
				{types.Str("c"), types.Int(2)},
			}))
			rf := newFault(NewValuesScan(schema.New(rk, rn), []types.Tuple{
				{types.Str("a"), types.Int(1)},
				{types.Str("b"), types.Int(2)},
				{types.Null(), types.Int(1)},
			}))
			return NewHashSemiJoin(lf, rf,
				[]expr.Expr{expr.NewColRef(lk), expr.NewColRef(ln)},
				[]expr.Expr{expr.NewColRef(rk), expr.NewColRef(rn)}), []*faultOp{lf, rf}
		}},
		{"DependentJoinBatchBound", func() (Operator, []*faultOp) {
			term := strCol("L", "Term")
			lf := newFault(NewValuesScan(schema.New(term), []types.Tuple{
				{types.Str("ab")}, {types.Str("xyz")},
			}))
			// Two rows per binding: a BindBatch round over max outer tuples
			// yields 2*max joined rows, so the join must carry the excess
			// over instead of exceeding max.
			src := &fakeSource{name: "WC", rowsFor: func(arg string) []types.Tuple {
				return []types.Tuple{{types.Int(int64(len(arg)))}, {types.Int(int64(-len(arg)))}}
			}}
			ev := NewEVScan(src, []expr.Expr{expr.NewColRef(term)}, fakeSchema("V"))
			return NewDependentJoin(lf, &batchBoundEV{EVScan: ev}, "V"), []*faultOp{lf}
		}},
		{"DependentJoinCarryOver", func() (Operator, []*faultOp) {
			// As many rows as the term has letters: at max 3 the first round
			// (a, b, cc) leaves cc's second row over, and the second (ddd,
			// eee) yields six rows while it waits. Granted, the join must
			// cut them after it, not over it.
			term := strCol("L", "Term")
			lf := newFault(NewValuesScan(schema.New(term), []types.Tuple{
				{types.Str("a")}, {types.Str("b")}, {types.Str("cc")}, {types.Str("ddd")}, {types.Str("eee")},
			}))
			src := &fakeSource{name: "WC", rowsFor: func(arg string) []types.Tuple {
				out := make([]types.Tuple, len(arg))
				for i := range out {
					out[i] = types.Tuple{types.Int(int64(i))}
				}
				return out
			}}
			ev := NewEVScan(src, []expr.Expr{expr.NewColRef(term)}, fakeSchema("V"))
			return NewDependentJoin(lf, &batchBoundEV{EVScan: ev}, "V"), []*faultOp{lf}
		}},
	}
}

// batchBoundEV wraps an EVScan with a BindBatch implementation that
// services each outer tuple through an Open → drain → Close cycle — a
// pump-free stand-in for AEVScan's batch registration, so the suite can
// drive the dependent join's BindBatch rounds without the async machinery.
// Its rows live exactly as long as the contract lets them: every value of
// a round is overwritten at the next BindBatch or Close, so a caller that
// kept a round's row instead of copying it shows stale values.
type batchBoundEV struct {
	*EVScan
	last [][]types.Tuple
}

// expire overwrites the last round's rows.
func (b *batchBoundEV) expire() {
	for _, rs := range b.last {
		for _, t := range rs {
			copy(t, staleTuple(len(t)))
		}
	}
	b.last = nil
}

func (b *batchBoundEV) Close() error {
	b.expire()
	return b.EVScan.Close()
}

// Without this the fake could drop out of the interface unnoticed and the
// suite would pass through the per-binding path.
var _ BindingBatcher = (*batchBoundEV)(nil)

func (b *batchBoundEV) BindBatch(ctx *Context, cols []schema.Column, outer []types.Tuple) ([][]types.Tuple, error) {
	b.expire()
	rows := make([][]types.Tuple, len(outer))
	for fi, lt := range outer {
		ctx.Env.PushFrame(cols, lt)
		err := b.EVScan.Open(ctx)
		if err == nil {
			for {
				rb, ok, nerr := b.EVScan.NextBatch(ctx, ctx.BatchLen())
				if nerr != nil {
					err = nerr
					break
				}
				if !ok {
					break
				}
				rows[fi] = append(rows[fi], rb...)
			}
		}
		cerr := b.EVScan.Close()
		ctx.Env.PopFrame()
		if err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
	}
	b.last = rows
	return rows, nil
}

// TestDependentJoinBindBatchMatchesPerBinding: the dependent join's two
// rounds must be indistinguishable — BindBatch over a whole outer batch
// yields the same rows in the same order, from the same number of source
// calls, as Open → drain → Close per binding — at every batch granularity
// including ones that split the outer stream mid-batch.
func TestDependentJoinBindBatchMatchesPerBinding(t *testing.T) {
	outer := []types.Tuple{
		{types.Str("ab")}, {types.Str("xyz")}, {types.Str("none")},
		{types.Str("ab")}, {types.Str("q")},
	}
	rowsFor := func(arg string) []types.Tuple {
		if arg == "none" {
			return nil // zero-row binding: the join must emit nothing for it
		}
		out := []types.Tuple{{types.Int(int64(len(arg)))}}
		if len(arg) > 2 {
			out = append(out, types.Tuple{types.Int(int64(-len(arg)))})
		}
		return out
	}
	build := func(batched bool) (Operator, *fakeSource) {
		term := strCol("L", "Term")
		left := NewValuesScan(schema.New(term), outer)
		src := &fakeSource{name: "WC", rowsFor: rowsFor}
		var right Operator = NewEVScan(src, []expr.Expr{expr.NewColRef(term)}, fakeSchema("V"))
		if batched {
			right = &batchBoundEV{EVScan: right.(*EVScan)}
		}
		return NewDependentJoin(left, right, "V"), src
	}
	for _, bs := range []int{1, 3, 256} {
		perBindingOp, perBindingSrc := build(false)
		ctx := NewContext()
		ctx.BatchSize = bs
		want, err := Run(ctx, perBindingOp)
		if err != nil {
			t.Fatalf("batch %d per-binding: %v", bs, err)
		}
		batchOp, batchSrc := build(true)
		ctx = NewContext()
		ctx.BatchSize = bs
		got, err := Run(ctx, batchOp)
		if err != nil {
			t.Fatalf("batch %d bound: %v", bs, err)
		}
		if fmt.Sprint(rowStrings(want)) != fmt.Sprint(rowStrings(got)) {
			t.Errorf("batch %d: rows diverge\nper-binding: %v\nbound:       %v", bs, want, got)
		}
		if perBindingSrc.callCount() != batchSrc.callCount() {
			t.Errorf("batch %d: calls diverge: per-binding %d, bound %d",
				bs, perBindingSrc.callCount(), batchSrc.callCount())
		}
	}
}

// TestHashSemiJoinNullAndMultiKey pins the semi-join's key semantics: a
// NULL in any key column matches nothing (on either side), and
// multi-column keys must agree on every column, not just the hash.
func TestHashSemiJoinNullAndMultiKey(t *testing.T) {
	lk, ln := strCol("L", "K"), intCol("L", "N")
	rk, rn := strCol("R", "K"), intCol("R", "N")
	left := NewValuesScan(schema.New(lk, ln), []types.Tuple{
		{types.Str("a"), types.Int(1)}, // matches ("a",1)
		{types.Str("a"), types.Int(2)}, // key exists per-column but not pairwise
		{types.Str("b"), types.Null()}, // NULL probe key: dropped
		{types.Null(), types.Int(1)},   // NULL probe key: dropped
		{types.Str("c"), types.Int(2)}, // no match
		{types.Str("a"), types.Int(1)}, // duplicate probe: emitted again
	})
	right := NewValuesScan(schema.New(rk, rn), []types.Tuple{
		{types.Str("a"), types.Int(1)},
		{types.Str("b"), types.Int(2)},
		{types.Null(), types.Int(2)}, // NULL build key: never matches ("c",2)
		{types.Str("a"), types.Int(1)},
	})
	j := NewHashSemiJoin(left, right,
		[]expr.Expr{expr.NewColRef(lk), expr.NewColRef(ln)},
		[]expr.Expr{expr.NewColRef(rk), expr.NewColRef(rn)})
	rows := runAll(t, j)
	want := "[<a, 1> <a, 1>]"
	if got := fmt.Sprint(rowStrings(rows)); got != want {
		t.Errorf("semi-join output = %v, want %v", got, want)
	}
}

func rowStrings(rows []types.Tuple) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	return out
}

// TestOperatorContractCleanRuns checks properties 1–3: clean run, identical
// re-open-after-exhaustion output, and idempotent Close.
func TestOperatorContractCleanRuns(t *testing.T) {
	for _, tc := range contractCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			op, leaves := tc.mk()
			first := runAll(t, op)
			if tc.name != "ValuesScan" && tc.name != "EVScan" && len(first) == 0 {
				t.Fatalf("degenerate fixture: no rows")
			}
			checkFresh(t, first)
			for i, f := range leaves {
				if f.open {
					t.Errorf("leaf %d left open after Run", i)
				}
			}
			// Re-open after exhaustion: same instance, same rows.
			second := runAll(t, op)
			if fmt.Sprint(rowStrings(first)) != fmt.Sprint(rowStrings(second)) {
				t.Errorf("re-open changed output:\nfirst:  %v\nsecond: %v", first, second)
			}
			// Idempotent Close (Run already closed it once).
			if err := op.Close(); err != nil {
				t.Errorf("second Close errored: %v", err)
			}
			if err := op.Close(); err != nil {
				t.Errorf("third Close errored: %v", err)
			}
		})
	}
}

// TestOperatorContractReopenAfterClose is property 2 for a tree that
// outlives its query (core keeps finished trees and re-opens them, DESIGN.md
// §5 "Plan reuse"): after Open → drain → Close, and after Open → a partial
// pull → Close, which leaves every buffering operator mid-stream, the same
// instance under a fresh context yields the rows of its first run, with
// every leaf closed in between.
func TestOperatorContractReopenAfterClose(t *testing.T) {
	for _, tc := range contractCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			op, leaves := tc.mk()
			want := fmt.Sprint(rowStrings(runAll(t, op)))
			// pull -1 drains; the others stop after one NextBatch of that size.
			for _, pull := range []int{-1, 1, 2, 3} {
				ctx := NewContext()
				if err := op.Open(ctx); err != nil {
					t.Fatalf("pull %d: Open: %v", pull, err)
				}
				for {
					_, ok, err := op.NextBatch(ctx, max(pull, 1))
					if err != nil {
						t.Fatalf("pull %d: NextBatch: %v", pull, err)
					}
					if !ok || pull > 0 {
						break
					}
				}
				if err := op.Close(); err != nil {
					t.Fatalf("pull %d: Close: %v", pull, err)
				}
				for i, f := range leaves {
					if f.open {
						t.Errorf("pull %d: leaf %d left open by Close", pull, i)
					}
				}
				rows := runAll(t, op)
				checkFresh(t, rows)
				if got := fmt.Sprint(rowStrings(rows)); got != want {
					t.Errorf("re-open after Close (pull %d) changed output:\ngot:  %v\nwant: %v", pull, got, want)
				}
			}
		})
	}
}

// TestOperatorContractTracedReopen is property 2 for a tree traced one
// execution at a time (core instruments the tree it re-opens and strips it
// before it keeps it again, DESIGN.md §5 rule 4): Instrument → run → strip
// → run → Instrument → run yields the same rows each time, Uninstrument
// leaves no decorator behind, and the two span trees have the plan's shape
// and agree on rows, opens and every extra but a timing — the second
// counts its own execution, not the tree's life.
func TestOperatorContractTracedReopen(t *testing.T) {
	for _, tc := range contractCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			op, _ := tc.mk()
			shape := Shape(op)
			traced := func() (string, *obs.Span) {
				t.Helper()
				w, span := Instrument(op)
				rows := runAll(t, w)
				if root := Uninstrument(w); root != op {
					t.Fatalf("Uninstrument returned %s, not the plan's root", root.Name())
				}
				if d := spanOpIn(op); d != "" {
					t.Fatalf("the decorator over %s stayed after Uninstrument", d)
				}
				if got := span.Shape(); got != shape {
					t.Errorf("span tree %s, plan %s", got, shape)
				}
				checkFresh(t, rows)
				return fmt.Sprint(rowStrings(rows)), span
			}
			want, first := traced()
			if got := fmt.Sprint(rowStrings(runAll(t, op))); got != want {
				t.Errorf("untraced run after a traced one:\ngot:  %v\nwant: %v", got, want)
			}
			got, again := traced()
			if got != want {
				t.Errorf("traced run on the stripped tree:\ngot:  %v\nwant: %v", got, want)
			}
			if a, b := spanCounts(first), spanCounts(again); a != b {
				t.Errorf("span counts of the third run differ from the first's:\n%s\nwant\n%s", b, a)
			}
		})
	}
}

// spanOpIn names the operator under the first decorator in op's tree, ""
// if there is none.
func spanOpIn(op Operator) string {
	switch w := op.(type) {
	case *spanOp:
		return w.inner.Name()
	case *batchSpanOp:
		return w.inner.Name()
	}
	for _, c := range op.Children() {
		if d := spanOpIn(c); d != "" {
			return d
		}
	}
	return ""
}

// spanCounts renders a span tree's rows, opens and extras, one span per
// line, without the timings.
func spanCounts(root *obs.Span) string {
	var b strings.Builder
	root.Walk(func(s *obs.Span) {
		fmt.Fprintf(&b, "%s rows=%d opens=%d", s.Op, s.Rows, s.Opens)
		keys := make([]string, 0, len(s.Extra))
		for k := range s.Extra {
			if !strings.HasSuffix(k, "_us") {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, " %s=%d", k, s.Extra[k])
		}
		b.WriteByte('\n')
	})
	return b.String()
}

// pullAll opens op, drains it with NextBatch(max) under a context whose
// batch size is bs, and closes it, asserting the size and stickiness
// halves of the pull contract on the way.
func pullAll(t *testing.T, op Operator, max, bs int) []types.Tuple {
	t.Helper()
	ctx := NewContext()
	ctx.BatchSize = bs
	if err := op.Open(ctx); err != nil {
		t.Fatalf("max %d bs %d: Open: %v", max, bs, err)
	}
	var rows []types.Tuple
	for {
		b, ok, err := op.NextBatch(ctx, max)
		if err != nil {
			t.Fatalf("max %d bs %d: NextBatch: %v", max, bs, err)
		}
		if !ok {
			break
		}
		if len(b) < 1 || len(b) > max {
			t.Fatalf("max %d bs %d: ok batch of %d tuples, want 1..%d", max, bs, len(b), max)
		}
		rows = append(rows, b...)
	}
	for i := 0; i < 2; i++ {
		if b, ok, err := op.NextBatch(ctx, max); ok || err != nil || len(b) != 0 {
			t.Fatalf("max %d bs %d: pull %d after end of stream: len=%d ok=%v err=%v, want sticky end",
				max, bs, i+1, len(b), ok, err)
		}
	}
	if err := op.Close(); err != nil {
		t.Fatalf("max %d bs %d: Close: %v", max, bs, err)
	}
	return rows
}

// TestOperatorContractPull checks property 5 on every case: the same
// instance, re-opened for every (max, batch size) pair, yields the rows of
// a plain Run each time, in batches of 1..max with a sticky end; and a
// max below 1 is an error, never a silent default or an empty ok batch.
func TestOperatorContractPull(t *testing.T) {
	for _, tc := range contractCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			op, _ := tc.mk()
			want := fmt.Sprint(rowStrings(runAll(t, op)))
			for _, max := range []int{1, 3, 256} {
				for _, bs := range []int{1, 3, 256} {
					rows := pullAll(t, op, max, bs)
					checkFresh(t, rows)
					if got := fmt.Sprint(rowStrings(rows)); got != want {
						t.Errorf("max %d bs %d changed output:\ngot:  %v\nwant: %v", max, bs, got, want)
					}
				}
			}
			for _, max := range []int{0, -1} {
				ctx := NewContext()
				if err := op.Open(ctx); err != nil {
					t.Fatal(err)
				}
				if b, ok, err := op.NextBatch(ctx, max); err == nil || ok || len(b) != 0 {
					t.Errorf("NextBatch(max=%d): len=%d ok=%v err=%v, want an error", max, len(b), ok, err)
				}
				if err := op.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestOperatorContractGranted checks property 7 on every case: granted by
// a consumer that keeps none of its tuples (it copies each batch at once,
// as Project does), the same instance yields at every max and batch size
// the rows it yields ungranted, and the rows an ungranted run handed out
// before stay as they were. A producer that refills storage its current
// batch still reads from, or a pass-through that hands a grant on when it
// got none, shows as wrong rows or sentinels.
func TestOperatorContractGranted(t *testing.T) {
	for _, tc := range contractCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			op, _ := tc.mk()
			kept := runAll(t, op)
			want := fmt.Sprint(rowStrings(kept))
			// Largest first: a granted slab outlives its execution, so the
			// smaller batches refill one grown for a whole stream.
			for _, max := range []int{256, 3, 1} {
				for _, bs := range []int{1, 3, 256} {
					ctx := NewContext()
					ctx.BatchSize = bs
					grantRecycling(op)
					if err := op.Open(ctx); err != nil {
						t.Fatalf("max %d bs %d: Open: %v", max, bs, err)
					}
					var rows []types.Tuple
					for {
						b, ok, err := op.NextBatch(ctx, max)
						if err != nil {
							t.Fatalf("max %d bs %d: NextBatch: %v", max, bs, err)
						}
						if !ok {
							break
						}
						for _, r := range b {
							rows = append(rows, r.Clone())
						}
					}
					if err := op.Close(); err != nil {
						t.Fatalf("max %d bs %d: Close: %v", max, bs, err)
					}
					checkFresh(t, rows)
					if got := fmt.Sprint(rowStrings(rows)); got != want {
						t.Errorf("max %d bs %d granted:\ngot:  %v\nwant: %v", max, bs, got, want)
					}
				}
			}
			if got := fmt.Sprint(rowStrings(runAll(t, op))); got != want {
				t.Errorf("ungranted run after granted ones:\ngot:  %v\nwant: %v", got, want)
			}
			if got := fmt.Sprint(rowStrings(kept)); got != want {
				t.Errorf("the granted runs rewrote an ungranted run's rows:\ngot:  %v\nwant: %v", got, want)
			}
		})
	}
}

// TestGrantsReachOnlyStreamingInputs: a leaf is granted exactly when no
// operator on its way to the root keeps its tuples — the consumers that
// grant (Aggregate, Project, the hash join's probe side, DependentJoin's
// outer side) grant, the pass-throughs (Filter, Limit, UnionAll, the semi
// join's probe side) hand on a grant they got and only then, and Run,
// Sort, Distinct, both sides of a nested-loop join and a hash join's
// build side grant nothing. A traced tree grants as its untraced twin.
func TestGrantsReachOnlyStreamingInputs(t *testing.T) {
	leaf := func() (*faultOp, schema.Column) {
		c := intCol("L", "N")
		return newFault(NewValuesScan(schema.New(c), intRows(1, 2, 2, 3))), c
	}
	sum := func(child Operator, c schema.Column) Operator {
		return NewAggregate(child, nil, nil, []AggSpec{{Func: AggSum, Arg: expr.NewColRef(c), OutCol: intCol("G", "S")}})
	}
	for _, tc := range []struct {
		name string
		mk   func() (Operator, []*faultOp)
		want []int // grants per leaf over one run
	}{
		{"Run", func() (Operator, []*faultOp) { f, _ := leaf(); return f, []*faultOp{f} }, []int{0}},
		{"Aggregate", func() (Operator, []*faultOp) { f, c := leaf(); return sum(f, c), []*faultOp{f} }, []int{1}},
		{"Project", func() (Operator, []*faultOp) {
			f, c := leaf()
			return NewProject(f, []expr.Expr{expr.NewColRef(c)}, schema.New(c)), []*faultOp{f}
		}, []int{1}},
		{"Sort", func() (Operator, []*faultOp) {
			f, c := leaf()
			return sum(NewSort(f, []SortKey{{Expr: expr.NewColRef(c)}}), c), []*faultOp{f}
		}, []int{0}},
		{"Distinct", func() (Operator, []*faultOp) { f, c := leaf(); return sum(NewDistinct(f), c), []*faultOp{f} }, []int{0}},
		{"FilterLimitUngranted", func() (Operator, []*faultOp) {
			f, c := leaf()
			return NewLimit(NewFilter(f, expr.NewCmp(expr.GT, expr.NewColRef(c), expr.NewLiteral(types.Int(1)))), 2), []*faultOp{f}
		}, []int{0}},
		{"FilterLimitGranted", func() (Operator, []*faultOp) {
			f, c := leaf()
			return sum(NewLimit(NewFilter(f, expr.NewCmp(expr.GT, expr.NewColRef(c), expr.NewLiteral(types.Int(1)))), 2), c), []*faultOp{f}
		}, []int{1}},
		{"UnionAll", func() (Operator, []*faultOp) {
			l, c := leaf()
			r, _ := leaf()
			u, err := NewUnionAll(l, r)
			if err != nil {
				panic(err)
			}
			return sum(u, c), []*faultOp{l, r}
		}, []int{1, 1}},
		{"HashJoin", func() (Operator, []*faultOp) {
			l, lc := leaf()
			r, rc := leaf()
			return NewHashJoin(l, r, []expr.Expr{expr.NewColRef(lc)}, []expr.Expr{expr.NewColRef(rc)}, nil), []*faultOp{l, r}
		}, []int{1, 0}},
		{"HashSemiJoinUngranted", func() (Operator, []*faultOp) {
			l, lc := leaf()
			r, rc := leaf()
			return NewHashSemiJoin(l, r, []expr.Expr{expr.NewColRef(lc)}, []expr.Expr{expr.NewColRef(rc)}), []*faultOp{l, r}
		}, []int{0, 0}},
		{"HashSemiJoinGranted", func() (Operator, []*faultOp) {
			l, lc := leaf()
			r, rc := leaf()
			return sum(NewHashSemiJoin(l, r, []expr.Expr{expr.NewColRef(lc)}, []expr.Expr{expr.NewColRef(rc)}), lc), []*faultOp{l, r}
		}, []int{1, 0}},
		{"NestedLoopJoin", func() (Operator, []*faultOp) {
			l, lc := leaf()
			r, rc := leaf()
			return sum(NewNestedLoopJoin(l, r, expr.NewCmp(expr.EQ, expr.NewColRef(lc), expr.NewColRef(rc))), lc), []*faultOp{l, r}
		}, []int{0, 0}},
		{"DependentJoin", func() (Operator, []*faultOp) {
			term := strCol("L", "Term")
			l := newFault(NewValuesScan(schema.New(term), []types.Tuple{{types.Str("ab")}, {types.Str("xyz")}}))
			src := &fakeSource{name: "WC", rowsFor: func(arg string) []types.Tuple { return []types.Tuple{{types.Int(int64(len(arg)))}} }}
			return NewDependentJoin(l, NewEVScan(src, []expr.Expr{expr.NewColRef(term)}, fakeSchema("V")), "V"), []*faultOp{l}
		}, []int{1}},
	} {
		for _, traced := range []bool{false, true} {
			op, leaves := tc.mk()
			if traced {
				op, _ = Instrument(op)
			}
			checkFresh(t, runAll(t, op))
			for i, f := range leaves {
				if f.grants != tc.want[i] || f.granted {
					t.Errorf("%s (traced %v): leaf %d granted %d times, want %d; still granted after Close: %v",
						tc.name, traced, i, f.grants, tc.want[i], f.granted)
				}
			}
		}
	}
}

// TestOperatorContractCloseAfterError checks property 4: for every fault
// leaf and every failure point (Open, first row, second row), Run's error
// path must close the whole tree — no leaf stays open — and closing again
// stays safe.
func TestOperatorContractCloseAfterError(t *testing.T) {
	for _, tc := range contractCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			_, probe := tc.mk()
			for leaf := range probe {
				for _, point := range []struct {
					name      string
					failOpen  bool
					failAfter int
				}{
					{"open", true, -1},
					{"row0", false, 0},
					{"row1", false, 1},
				} {
					op, leaves := tc.mk()
					leaves[leaf].failOpen = point.failOpen
					leaves[leaf].failAfter = point.failAfter
					_, err := Run(NewContext(), op)
					if !errors.Is(err, errInjected) {
						t.Fatalf("leaf %d %s: Run error = %v, want injected fault", leaf, point.name, err)
					}
					for i, f := range leaves {
						if f.open {
							t.Errorf("leaf %d %s: leaf %d left open after error path", leaf, point.name, i)
						}
					}
					if err := op.Close(); err != nil {
						t.Errorf("leaf %d %s: Close after error path errored: %v", leaf, point.name, err)
					}
				}
			}
		})
	}
}

// TestOperatorContractCloseReportsChildError: a teardown error is an error
// of the run. For every fault leaf whose Close fails, Run must report it,
// so an operator that closes two children must return both their errors
// (errors.Join), not only the last.
func TestOperatorContractCloseReportsChildError(t *testing.T) {
	for _, tc := range contractCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			_, probe := tc.mk()
			for leaf := range probe {
				op, leaves := tc.mk()
				leaves[leaf].failClose = true
				if _, err := Run(NewContext(), op); !errors.Is(err, errInjected) {
					t.Errorf("leaf %d: its Close failed, Run error = %v, want the injected fault", leaf, err)
				}
			}
		})
	}
}

// unbindable is an expression whose Bind fails: the one way an operator's
// Open can fail, children already open, without a child failing.
type unbindable struct{ expr.Expr }

func (unbindable) Bind(*schema.Schema) error { return errInjected }

// TestOperatorContractCloseAfterOwnOpenError is property 4 for the failure
// no fault leaf can inject: the operator's own Open fails after it opened a
// child. Every two-child operator gates Close on an opened flag, so an Open
// that returns before setting it must have closed what it opened.
func TestOperatorContractCloseAfterOwnOpenError(t *testing.T) {
	la, ra := intCol("L", "N"), intCol("R", "N")
	tab := contractTable(t)
	bad := unbindable{}
	rkey := []expr.Expr{expr.NewColRef(ra)}
	for _, tc := range []struct {
		name string
		mk   func(l, r *faultOp) Operator
	}{
		{"NestedLoopJoin", func(l, r *faultOp) Operator { return NewNestedLoopJoin(l, r, bad) }},
		{"HashJoin", func(l, r *faultOp) Operator { return NewHashJoin(l, r, []expr.Expr{bad}, rkey, nil) }},
		{"HashJoinResidual", func(l, r *faultOp) Operator {
			return NewHashJoin(l, r, []expr.Expr{expr.NewColRef(la)}, rkey, bad)
		}},
		{"HashSemiJoin", func(l, r *faultOp) Operator { return NewHashSemiJoin(l, r, []expr.Expr{bad}, rkey) }},
		{"TableScanPredicate", func(_, _ *faultOp) Operator {
			sc := NewTableScan(tab, tab.InstantiateSchema(""))
			sc.Pred = bad
			return sc
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := newFault(NewValuesScan(schema.New(la), intRows(1, 2)))
			r := newFault(NewValuesScan(schema.New(ra), intRows(2, 3)))
			op := tc.mk(l, r)
			if _, err := Run(NewContext(), op); !errors.Is(err, errInjected) {
				t.Fatalf("Run error = %v, want the injected Open failure", err)
			}
			if l.open || r.open {
				t.Errorf("left open = %v, right open = %v after the operator's own Open failed", l.open, r.open)
			}
			if err := op.Close(); err != nil {
				t.Errorf("Close after a failed Open errored: %v", err)
			}
			if sc, ok := op.(*TableScan); ok && sc.sc != nil {
				t.Errorf("the scan still holds its storage scanner after Close")
			}
		})
	}
}

// TestNarrowedJoinIsTheFullJoinProjected: whatever need a join is handed,
// it emits the rows of the unnarrowed join, in order, cut to need's
// columns — as many of them when need names no column, which is what a
// COUNT(*) above the join counts.
func TestNarrowedJoinIsTheFullJoinProjected(t *testing.T) {
	type narrower interface {
		Operator
		Narrow(map[schema.AttrID]bool)
	}
	for name, mk := range map[string]func() (narrower, []schema.Column){
		"HashJoin": func() (narrower, []schema.Column) {
			lf, rf, lk, ln, rk, rm := wideJoinInputs()
			return NewHashJoin(lf, rf, []expr.Expr{expr.NewColRef(lk)}, []expr.Expr{expr.NewColRef(rk)}, nil),
				[]schema.Column{lk, ln, rk, rm}
		},
		"NestedLoopJoin": func() (narrower, []schema.Column) {
			lf, rf, lk, ln, rk, rm := wideJoinInputs()
			return NewNestedLoopJoin(lf, rf, expr.NewCmp(expr.LT, expr.NewColRef(ln), expr.NewColRef(rm))),
				[]schema.Column{lk, ln, rk, rm}
		},
	} {
		full, _ := mk()
		want := runAll(t, full)
		if len(want) < 3 {
			t.Fatalf("%s: degenerate fixture, %d rows", name, len(want))
		}
		for _, keep := range [][]int{{}, {1}, {3}, {0, 3}, {1, 2}, {0, 1, 2, 3}} {
			j, cols := mk()
			var need []schema.Column
			for _, i := range keep {
				need = append(need, cols[i])
			}
			set := attrSet(need...)
			if nl, ok := j.(*NestedLoopJoin); ok {
				nl.Pred.CollectAttrs(set) // a join's need names what its predicate reads
				keep = keep[:0]
				for i, c := range cols {
					if set[c.ID] {
						keep = append(keep, i)
					}
				}
			}
			j.Narrow(set)
			if got := j.Schema().Len(); got != len(keep) {
				t.Errorf("%s need %v: schema has %d columns", name, keep, got)
			}
			got := runAll(t, j)
			if len(got) != len(want) {
				t.Fatalf("%s need %v: %d rows, the full join has %d", name, keep, len(got), len(want))
			}
			for r, row := range got {
				cut := make(types.Tuple, len(keep))
				for k, i := range keep {
					cut[k] = want[r][i]
				}
				if row.String() != cut.String() {
					t.Errorf("%s need %v row %d: %v, want %v", name, keep, r, row, cut)
				}
			}
		}
	}
}

// TestReusedWindowsLeaveTuplesAlone: the scan, the hash join and the
// projection hand out the same window at every NextBatch, and the scan
// takes rejected rows back off its slab. A tuple copied out of a window
// must not change when the window, or the slab cell a rejected neighbour
// held, is written again.
func TestReusedWindowsLeaveTuplesAlone(t *testing.T) {
	tab := contractTable(t)
	scan := func() *TableScan {
		sc := NewTableScan(tab, tab.InstantiateSchema(""))
		sc.Pred = expr.NewCmp(expr.GT, expr.NewColRef(sc.Out.Cols[1]), expr.NewLiteral(types.Int(0)))
		return sc
	}
	for name, mk := range map[string]func() Operator{
		"TableScan": func() Operator { return scan() },
		"HashJoin": func() Operator {
			l, r := scan(), scan()
			j := NewHashJoin(l, r, []expr.Expr{expr.NewColRef(l.Out.Cols[1])}, []expr.Expr{expr.NewColRef(r.Out.Cols[1])}, nil)
			j.Narrow(attrSet(l.Out.Cols[0], r.Out.Cols[0]))
			return j
		},
		"Project": func() Operator {
			sc := scan()
			id := sc.Out.Cols[0]
			out := schema.New(id, intCol("P", "Next"))
			return NewProject(sc, []expr.Expr{expr.NewColRef(id), expr.NewArith(expr.Add, expr.NewColRef(id), expr.NewLiteral(types.Int(1)))}, out)
		},
	} {
		want := rowStrings(runAll(t, mk()))
		op := mk()
		ctx := NewContext()
		ctx.BatchSize = 3
		if err := op.Open(ctx); err != nil {
			t.Fatal(err)
		}
		var kept []types.Tuple
		var first Batch
		reused := false
		for {
			b, ok, err := op.NextBatch(ctx, 3)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if first == nil {
				first = b
			} else if &first[0] == &b[0] {
				reused = true
			}
			kept = append(kept, b...)
		}
		if err := op.Close(); err != nil {
			t.Fatal(err)
		}
		if !reused {
			t.Errorf("%s: no later batch came in the first one's window", name)
		}
		if got := rowStrings(kept); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: rows kept across batches %v\nwant %v", name, got, want)
		}
	}
}
