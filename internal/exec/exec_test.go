package exec

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/expr"
	"repro/internal/schema"
	"repro/internal/types"
)

// ---------------------------------------------------------------------------
// Test fixtures

func intCol(table, name string) schema.Column {
	return schema.Column{ID: schema.NewAttrID(), Table: table, Name: name, Type: schema.TInt}
}

func strCol(table, name string) schema.Column {
	return schema.Column{ID: schema.NewAttrID(), Table: table, Name: name, Type: schema.TString}
}

func runAll(t *testing.T, op Operator) []types.Tuple {
	t.Helper()
	rows, err := Run(NewContext(), op)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// fakeSource is a scripted ExternalSource: it echoes its single input and
// returns a configured number of output rows per distinct argument.
type fakeSource struct {
	name    string
	rowsFor func(arg string) []types.Tuple
	mu      sync.Mutex
	calls   []string
}

func (f *fakeSource) Name() string        { return f.name }
func (f *fakeSource) Destination() string { return "fake" }
func (f *fakeSource) NumEcho() int        { return 1 }
func (f *fakeSource) AppendKey(buf []byte, args []types.Value) []byte {
	return append(append(append(buf, f.name...), '|'), args[0].AsString()...)
}
func (f *fakeSource) Call(key string) func() ([]types.Tuple, error) {
	arg := strings.TrimPrefix(key, f.name+"|")
	return func() ([]types.Tuple, error) {
		f.mu.Lock()
		f.calls = append(f.calls, arg)
		f.mu.Unlock()
		return f.rowsFor(arg), nil
	}
}

func (f *fakeSource) callCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.calls)
}

// fakeSchema builds the EVScan output schema for fakeSource: input Term,
// output Val.
func fakeSchema(alias string) *schema.Schema {
	return schema.New(strCol(alias, "Term"), intCol(alias, "Val"))
}

// ---------------------------------------------------------------------------
// Scans

func TestValuesScan(t *testing.T) {
	s := schema.New(intCol("T", "A"))
	v := NewValuesScan(s, []types.Tuple{{types.Int(1)}, {types.Int(2)}})
	rows := runAll(t, v)
	if len(rows) != 2 || rows[1][0].I != 2 {
		t.Errorf("rows: %v", rows)
	}
	// Re-open rescans.
	rows = runAll(t, v)
	if len(rows) != 2 {
		t.Errorf("rescan rows: %v", rows)
	}
}

// ---------------------------------------------------------------------------
// Filter / Project

func TestFilter(t *testing.T) {
	a := intCol("T", "A")
	s := schema.New(a)
	scan := NewValuesScan(s, []types.Tuple{{types.Int(1)}, {types.Int(5)}, {types.Int(3)}})
	f := NewFilter(scan, expr.NewCmp(expr.GE, expr.NewColRef(a), expr.NewLiteral(types.Int(3))))
	rows := runAll(t, f)
	if len(rows) != 2 || rows[0][0].I != 5 || rows[1][0].I != 3 {
		t.Errorf("filter rows: %v", rows)
	}
}

func TestProjectComputedAndPassThrough(t *testing.T) {
	a, b := intCol("T", "A"), intCol("T", "B")
	s := schema.New(a, b)
	scan := NewValuesScan(s, []types.Tuple{{types.Int(10), types.Int(4)}})
	sum := schema.Column{ID: schema.NewAttrID(), Name: "S", Type: schema.TInt}
	p := NewProject(scan,
		[]expr.Expr{expr.NewColRef(b), expr.NewArith(expr.Add, expr.NewColRef(a), expr.NewColRef(b))},
		schema.New(b, sum))
	rows := runAll(t, p)
	if len(rows) != 1 || rows[0][0].I != 4 || rows[0][1].I != 14 {
		t.Errorf("project rows: %v", rows)
	}
	p2 := NewProject(scan, []expr.Expr{expr.NewColRef(a)}, schema.New(a))
	if rows := runAll(t, p2); len(rows) != 1 || len(rows[0]) != 1 || rows[0][0].I != 10 {
		t.Errorf("pass-through project rows: %v", rows)
	}
}

// ---------------------------------------------------------------------------
// Joins

func TestNestedLoopJoin(t *testing.T) {
	a := intCol("L", "A")
	b := intCol("R", "B")
	left := NewValuesScan(schema.New(a), []types.Tuple{{types.Int(1)}, {types.Int(2)}})
	right := NewValuesScan(schema.New(b), []types.Tuple{{types.Int(2)}, {types.Int(3)}})
	j := NewNestedLoopJoin(left, right, expr.NewCmp(expr.EQ, expr.NewColRef(a), expr.NewColRef(b)))
	rows := runAll(t, j)
	if len(rows) != 1 || rows[0][0].I != 2 || rows[0][1].I != 2 {
		t.Errorf("join rows: %v", rows)
	}
	if j.Name() != "Join" {
		t.Error("predicated join name")
	}
}

func TestCrossProduct(t *testing.T) {
	a := intCol("L", "A")
	b := intCol("R", "B")
	left := NewValuesScan(schema.New(a), []types.Tuple{{types.Int(1)}, {types.Int(2)}})
	right := NewValuesScan(schema.New(b), []types.Tuple{{types.Int(10)}, {types.Int(20)}, {types.Int(30)}})
	j := NewNestedLoopJoin(left, right, nil)
	rows := runAll(t, j)
	if len(rows) != 6 {
		t.Errorf("cross product rows: %d", len(rows))
	}
	if j.Name() != "Cross-Product" {
		t.Error("cross product name")
	}
}

func TestJoinEmptyInputs(t *testing.T) {
	a := intCol("L", "A")
	b := intCol("R", "B")
	empty := NewValuesScan(schema.New(a), nil)
	right := NewValuesScan(schema.New(b), []types.Tuple{{types.Int(1)}})
	if rows := runAll(t, NewNestedLoopJoin(empty, right, nil)); len(rows) != 0 {
		t.Errorf("empty left: %v", rows)
	}
	left := NewValuesScan(schema.New(a), []types.Tuple{{types.Int(1)}})
	emptyR := NewValuesScan(schema.New(b), nil)
	if rows := runAll(t, NewNestedLoopJoin(left, emptyR, nil)); len(rows) != 0 {
		t.Errorf("empty right: %v", rows)
	}
}

func TestDependentJoinBindings(t *testing.T) {
	term := strCol("L", "Term")
	left := NewValuesScan(schema.New(term), []types.Tuple{{types.Str("a")}, {types.Str("b")}})
	src := &fakeSource{name: "F", rowsFor: func(arg string) []types.Tuple {
		return []types.Tuple{{types.Int(int64(len(arg)) * 10)}}
	}}
	out := fakeSchema("F")
	ev := NewEVScan(src, []expr.Expr{expr.NewColRef(term)}, out)
	dj := NewDependentJoin(left, ev, "L.Term -> F.Term")
	rows := runAll(t, dj)
	if len(rows) != 2 {
		t.Fatalf("rows: %v", rows)
	}
	// Each output row: [L.Term, F.Term(echo), F.Val].
	for _, r := range rows {
		if r[0].AsString() != r[1].AsString() {
			t.Errorf("echoed input mismatch: %v", r)
		}
		if r[2].I != 10 {
			t.Errorf("val: %v", r)
		}
	}
	if src.callCount() != 2 {
		t.Errorf("calls: %d", src.callCount())
	}
}

func TestDependentJoinMultiRowAndEmpty(t *testing.T) {
	term := strCol("L", "Term")
	left := NewValuesScan(schema.New(term), []types.Tuple{{types.Str("none")}, {types.Str("three")}})
	src := &fakeSource{name: "F", rowsFor: func(arg string) []types.Tuple {
		if arg == "none" {
			return nil
		}
		return []types.Tuple{{types.Int(1)}, {types.Int(2)}, {types.Int(3)}}
	}}
	ev := NewEVScan(src, []expr.Expr{expr.NewColRef(term)}, fakeSchema("F"))
	rows := runAll(t, NewDependentJoin(left, ev, ""))
	if len(rows) != 3 {
		t.Fatalf("rows: %v", rows)
	}
	for i, r := range rows {
		if r[0].AsString() != "three" || r[2].I != int64(i+1) {
			t.Errorf("row %d: %v", i, r)
		}
	}
}

// TestNestedDependentJoinsBindInnermostFrame: two nested dependent joins
// whose left sides both carry the column the scan reads. Each pushes its
// outer tuple as a frame; the reference resolves to the innermost one.
func TestNestedDependentJoinsBindInnermostFrame(t *testing.T) {
	term := strCol("L", "Term")
	vals := func(ss ...string) *ValuesScan {
		rows := make([]types.Tuple, len(ss))
		for i, s := range ss {
			rows[i] = types.Tuple{types.Str(s)}
		}
		return NewValuesScan(schema.New(term), rows)
	}
	src := &fakeSource{name: "F", rowsFor: func(arg string) []types.Tuple {
		return []types.Tuple{{types.Int(int64(len(arg)))}}
	}}
	ev := NewEVScan(src, []expr.Expr{expr.NewColRef(term)}, fakeSchema("F"))
	inner := NewDependentJoin(vals("i", "ii"), ev, "")
	rows := runAll(t, NewDependentJoin(vals("outer-1", "outer-2"), inner, ""))
	// Each output row: [outer Term, inner Term, F.Term (echo), F.Val].
	if len(rows) != 4 {
		t.Fatalf("rows: %v", rows)
	}
	for i, r := range rows {
		if want := []string{"i", "ii"}[i%2]; r[1].AsString() != want || r[2].AsString() != want || r[3].I != int64(len(want)) {
			t.Errorf("row %d: %v, want the scan bound to the inner tuple %q", i, r, want)
		}
	}
	if fmt.Sprint(src.calls) != "[i ii i ii]" {
		t.Errorf("calls: %v", src.calls)
	}
}

func TestStackedDependentJoins(t *testing.T) {
	// Two stacked dependent joins: the upper one re-binds per tuple of the
	// lower join's output (the Figure 5/6 plan shape).
	term := strCol("L", "Term")
	left := NewValuesScan(schema.New(term), []types.Tuple{{types.Str("x")}, {types.Str("yy")}})
	src1 := &fakeSource{name: "F1", rowsFor: func(arg string) []types.Tuple {
		return []types.Tuple{{types.Int(int64(len(arg)))}}
	}}
	src2 := &fakeSource{name: "F2", rowsFor: func(arg string) []types.Tuple {
		return []types.Tuple{{types.Int(int64(len(arg)) * 100)}}
	}}
	ev1 := NewEVScan(src1, []expr.Expr{expr.NewColRef(term)}, fakeSchema("F1"))
	dj1 := NewDependentJoin(left, ev1, "")
	ev2 := NewEVScan(src2, []expr.Expr{expr.NewColRef(term)}, fakeSchema("F2"))
	dj2 := NewDependentJoin(dj1, ev2, "")
	rows := runAll(t, dj2)
	if len(rows) != 2 {
		t.Fatalf("rows: %v", rows)
	}
	for _, r := range rows {
		// Row: [L.Term, F1.Term, F1.Val, F2.Term, F2.Val].
		n := int64(len(r[0].AsString()))
		if r[2].I != n || r[4].I != n*100 {
			t.Errorf("row: %v", r)
		}
	}
}

// ---------------------------------------------------------------------------
// Sort / Limit / Distinct / Aggregate

func TestSort(t *testing.T) {
	a, b := intCol("T", "A"), strCol("T", "B")
	s := schema.New(a, b)
	scan := NewValuesScan(s, []types.Tuple{
		{types.Int(2), types.Str("x")},
		{types.Int(1), types.Str("y")},
		{types.Int(2), types.Str("a")},
	})
	srt := NewSort(scan, []SortKey{
		{Expr: expr.NewColRef(a), Desc: true},
		{Expr: expr.NewColRef(b)},
	})
	rows := runAll(t, srt)
	want := []string{"a", "x", "y"}
	for i, r := range rows {
		if r[1].AsString() != want[i] {
			t.Errorf("sort order: %v", rows)
			break
		}
	}
}

func TestSortStability(t *testing.T) {
	a, b := intCol("T", "A"), intCol("T", "B")
	s := schema.New(a, b)
	var input []types.Tuple
	for i := 0; i < 10; i++ {
		input = append(input, types.Tuple{types.Int(1), types.Int(int64(i))})
	}
	srt := NewSort(NewValuesScan(s, input), []SortKey{{Expr: expr.NewColRef(a)}})
	rows := runAll(t, srt)
	for i, r := range rows {
		if r[1].I != int64(i) {
			t.Fatal("sort must be stable on equal keys")
		}
	}
}

func TestLimit(t *testing.T) {
	a := intCol("T", "A")
	scan := NewValuesScan(schema.New(a), []types.Tuple{{types.Int(1)}, {types.Int(2)}, {types.Int(3)}})
	rows := runAll(t, NewLimit(scan, 2))
	if len(rows) != 2 {
		t.Errorf("limit rows: %v", rows)
	}
	rows = runAll(t, NewLimit(scan, 0))
	if len(rows) != 0 {
		t.Errorf("limit 0: %v", rows)
	}
	rows = runAll(t, NewLimit(scan, 10))
	if len(rows) != 3 {
		t.Errorf("limit beyond input: %v", rows)
	}
}

func TestDistinct(t *testing.T) {
	a := intCol("T", "A")
	scan := NewValuesScan(schema.New(a), []types.Tuple{
		{types.Int(1)}, {types.Int(2)}, {types.Int(1)}, {types.Int(1)},
	})
	rows := runAll(t, NewDistinct(scan))
	if len(rows) != 2 {
		t.Errorf("distinct rows: %v", rows)
	}
}

func TestAggregate(t *testing.T) {
	g, v := strCol("T", "G"), intCol("T", "V")
	s := schema.New(g, v)
	scan := NewValuesScan(s, []types.Tuple{
		{types.Str("a"), types.Int(1)},
		{types.Str("b"), types.Int(10)},
		{types.Str("a"), types.Int(3)},
		{types.Str("b"), types.Null()}, // NULL ignored by aggregates
	})
	agg := NewAggregate(scan,
		[]expr.Expr{expr.NewColRef(g)},
		[]schema.Column{g},
		[]AggSpec{
			{Func: AggCountStar, OutCol: intCol("", "n")},
			{Func: AggSum, Arg: expr.NewColRef(v), OutCol: intCol("", "s")},
			{Func: AggMin, Arg: expr.NewColRef(v), OutCol: intCol("", "mn")},
			{Func: AggMax, Arg: expr.NewColRef(v), OutCol: intCol("", "mx")},
			{Func: AggAvg, Arg: expr.NewColRef(v), OutCol: schema.Column{ID: schema.NewAttrID(), Name: "av", Type: schema.TFloat}},
		})
	rows := runAll(t, agg)
	if len(rows) != 2 {
		t.Fatalf("groups: %v", rows)
	}
	// Deterministic order (sorted by group key): a then b.
	ra, rb := rows[0], rows[1]
	if ra[0].AsString() != "a" || ra[1].I != 2 || ra[2].I != 4 || ra[3].I != 1 || ra[4].I != 3 || ra[5].F != 2 {
		t.Errorf("group a: %v", ra)
	}
	if rb[0].AsString() != "b" || rb[1].I != 2 || rb[2].I != 10 {
		t.Errorf("group b: %v", rb)
	}
}

func TestAggregateGlobalEmptyInput(t *testing.T) {
	v := intCol("T", "V")
	scan := NewValuesScan(schema.New(v), nil)
	agg := NewAggregate(scan, nil, nil, []AggSpec{
		{Func: AggCountStar, OutCol: intCol("", "n")},
		{Func: AggSum, Arg: expr.NewColRef(v), OutCol: intCol("", "s")},
	})
	rows := runAll(t, agg)
	if len(rows) != 1 || rows[0][0].I != 0 || !rows[0][1].IsNull() {
		t.Errorf("global aggregate over empty input: %v", rows)
	}
}

func TestAggregateRejectsPlaceholders(t *testing.T) {
	v := intCol("T", "V")
	scan := NewValuesScan(schema.New(v), []types.Tuple{{types.Placeholder(1, 0)}})
	agg := NewAggregate(scan, nil, nil, []AggSpec{{Func: AggCountStar, OutCol: intCol("", "n")}})
	if _, err := Run(NewContext(), agg); err == nil {
		t.Fatal("aggregate over placeholder tuples must error")
	}
}

// ---------------------------------------------------------------------------
// EVScan

func TestEVScanConstantInput(t *testing.T) {
	src := &fakeSource{name: "F", rowsFor: func(arg string) []types.Tuple {
		return []types.Tuple{{types.Int(7)}}
	}}
	ev := NewEVScan(src, []expr.Expr{expr.NewLiteral(types.Str("q"))}, fakeSchema("F"))
	rows := runAll(t, ev)
	if len(rows) != 1 || rows[0][0].AsString() != "q" || rows[0][1].I != 7 {
		t.Errorf("evscan rows: %v", rows)
	}
}

// TestEVScanPruned: a pruned scan emits its kept columns only; a result
// field stays even if nothing reads one, so the call's row count survives;
// the rows a call returns, and their width check, are those of the full
// column list.
func TestEVScanPruned(t *testing.T) {
	src := &fakeSource{name: "F", rowsFor: func(arg string) []types.Tuple {
		switch arg {
		case "two":
			return []types.Tuple{{types.Int(1), types.Str("a")}, {types.Int(2), types.Str("b")}}
		case "short":
			return []types.Tuple{{types.Int(1)}}
		}
		return nil
	}}
	scan := func(arg string, need ...int) (*EVScan, *schema.Schema) {
		full := schema.New(strCol("F", "Term"), intCol("F", "Val"), strCol("F", "Tag"))
		ev := NewEVScan(src, []expr.Expr{expr.NewLiteral(types.Str(arg))}, full)
		ids := map[schema.AttrID]bool{}
		for _, i := range need {
			ids[full.Cols[i].ID] = true
		}
		ev.Prune(ids)
		return ev, full
	}
	ev, _ := scan("two", 2)
	if rows := runAll(t, ev); len(rows) != 2 || rows[0].String() != "<a>" || rows[1].String() != "<b>" {
		t.Errorf("Tag only: %v", rows)
	}
	ev, full := scan("two", 0)
	if rows := runAll(t, ev); len(rows) != 2 || rows[1].String() != "<two, 2>" {
		t.Errorf("Term only keeps the first result field too: %v", rows)
	}
	if got := ev.Schema().String(); got != "(F.Term, F.Val)" || len(ev.ResultCols()) != 1 || ev.ResultCols()[0].ID != full.Cols[1].ID {
		t.Errorf("schema %s, result columns %v", got, ev.ResultCols())
	}
	ev, _ = scan("none", 0, 1, 2)
	if rows := runAll(t, ev); len(rows) != 0 {
		t.Errorf("zero-row call: %v", rows)
	}
	ev, _ = scan("short", 1)
	if _, err := Run(NewContext(), ev); err == nil || !strings.Contains(err.Error(), "result width 2 != schema width 3") {
		t.Errorf("short row through a pruned scan: %v", err)
	}
}

func TestEVScanPlaceholderInputRejected(t *testing.T) {
	term := strCol("L", "Term")
	src := &fakeSource{name: "F", rowsFor: func(string) []types.Tuple { return nil }}
	ev := NewEVScan(src, []expr.Expr{expr.NewColRef(term)}, fakeSchema("F"))
	ctx := NewContext()
	ctx.Env.PushFrame([]schema.Column{term}, types.Tuple{types.Placeholder(5, 0)})
	if err := ev.Open(ctx); err == nil {
		t.Fatal("placeholder input must be rejected")
	}
}

// ---------------------------------------------------------------------------
// Explain / Shape

func TestExplainAndShape(t *testing.T) {
	a := intCol("T", "A")
	scan := NewValuesScan(schema.New(a), nil)
	plan := NewSort(NewFilter(scan, expr.NewCmp(expr.GT, expr.NewColRef(a), expr.NewLiteral(types.Int(0)))),
		[]SortKey{{Expr: expr.NewColRef(a), Desc: true}})
	exp := Explain(plan)
	for _, want := range []string{"Sort: T.A DESC", "Select: T.A > 0", "Values"} {
		if !strings.Contains(exp, want) {
			t.Errorf("explain %q missing %q", exp, want)
		}
	}
	if got := Shape(plan); got != "Sort(Select(Values))" {
		t.Errorf("shape: %s", got)
	}
}

// ---------------------------------------------------------------------------
// Children / SetChild rewire

func TestSetChildRewiresSchema(t *testing.T) {
	a := intCol("L", "A")
	b := intCol("R", "B")
	c := intCol("R2", "C")
	left := NewValuesScan(schema.New(a), []types.Tuple{{types.Int(1)}})
	right := NewValuesScan(schema.New(b), []types.Tuple{{types.Int(2)}})
	j := NewNestedLoopJoin(left, right, nil)
	_ = j.Schema() // cache it
	j.SetChild(1, NewValuesScan(schema.New(c), []types.Tuple{{types.Int(3)}}))
	if j.Schema().Cols[1].Name != "C" {
		t.Error("SetChild must invalidate the cached schema")
	}
	rows := runAll(t, j)
	if len(rows) != 1 || rows[0][1].I != 3 {
		t.Errorf("rows after rewire: %v", rows)
	}
}

func TestRunPropagatesErrors(t *testing.T) {
	a := intCol("T", "A")
	scan := NewValuesScan(schema.New(a), []types.Tuple{{types.Str("boom")}})
	// Filter comparing string to int is fine (kind-ordered), but an unbound
	// column reference must error at bind time.
	ghost := intCol("Ghost", "X")
	f := NewFilter(scan, expr.NewCmp(expr.EQ, expr.NewColRef(ghost), expr.NewLiteral(types.Int(1))))
	if _, err := Run(NewContext(), f); err == nil {
		t.Fatal("expected error for unresolvable column at eval time")
	}
	_ = fmt.Sprintf
}
