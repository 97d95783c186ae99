package exec

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/schema"
	"repro/internal/types"
)

// The storage lifecycle (see Batch): an operator's storage is its own,
// Open resets it, Close lets go of the tuples and strings in it, and
// nothing is remade per execution.

// TestOperatorContractReopenOverChangedInput: a kept Aggregate, Filter,
// Project, Distinct, Sort, HashJoin and HashSemiJoin re-opened over inputs whose rows changed
// since the last execution — fewer groups, new keys, new min and max
// strings, then nothing, then the first rows again — return exactly what
// a fresh tree returns over the same rows: no group, key, state or row
// carries over. After every Close the storage the operator keeps
// references no tuple and no string.
func TestOperatorContractReopenOverChangedInput(t *testing.T) {
	lk, ln, ls := strCol("L", "K"), intCol("L", "N"), strCol("L", "S")
	rk, rm := strCol("R", "K"), intCol("R", "M")
	left, right := schema.New(lk, ln, ls), schema.New(rk, rm)
	row := func(vals ...any) types.Tuple {
		t := make(types.Tuple, len(vals))
		for i, v := range vals {
			switch v := v.(type) {
			case string:
				t[i] = types.Str(v)
			case int:
				t[i] = types.Int(int64(v))
			}
		}
		return t
	}
	inputs := []struct{ l, r []types.Tuple }{
		{
			l: []types.Tuple{row("a", 1, "m"), row("b", 2, "z"), row("c", 3, "x"), row("a", 4, "b")},
			r: []types.Tuple{row("a", 10), row("b", 20), row("c", 30), row("a", 40)},
		},
		{
			l: []types.Tuple{row("b", 5, "q"), row("d", 6, "k")},
			r: []types.Tuple{row("d", 60), row("b", 50), row("d", 61)},
		},
		{},
	}
	col := expr.NewColRef
	cases := []struct {
		name string
		mk   func(l, r *ValuesScan) Operator
	}{
		{"Aggregate", func(l, _ *ValuesScan) Operator {
			return NewAggregate(l, []expr.Expr{col(lk)}, []schema.Column{strCol("G", "K")}, []AggSpec{
				{Func: AggCountStar, OutCol: intCol("G", "C")},
				{Func: AggSum, Arg: col(ln), OutCol: intCol("G", "S")},
				{Func: AggMin, Arg: col(ls), OutCol: strCol("G", "Lo")},
				{Func: AggMax, Arg: col(ls), OutCol: strCol("G", "Hi")},
			})
		}},
		{"AggregateGlobal", func(l, _ *ValuesScan) Operator {
			return NewAggregate(l, nil, nil, []AggSpec{
				{Func: AggCountStar, OutCol: intCol("G", "C")},
				{Func: AggMin, Arg: col(ls), OutCol: strCol("G", "Lo")},
				{Func: AggMax, Arg: col(ls), OutCol: strCol("G", "Hi")},
			})
		}},
		{"Filter", func(l, _ *ValuesScan) Operator {
			return NewFilter(l, expr.NewCmp(expr.GT, col(ln), expr.NewLiteral(types.Int(1))))
		}},
		{"Project", func(l, _ *ValuesScan) Operator {
			return NewProject(l, []expr.Expr{col(ls), col(lk)}, schema.New(strCol("P", "S"), strCol("P", "K")))
		}},
		{"Distinct", func(l, _ *ValuesScan) Operator {
			return NewDistinct(NewProject(l, []expr.Expr{col(lk)}, schema.New(strCol("D", "K"))))
		}},
		{"Sort", func(l, _ *ValuesScan) Operator {
			return NewSort(l, []SortKey{{Expr: col(ls), Desc: true}, {Expr: col(ln)}})
		}},
		{"HashJoin", func(l, r *ValuesScan) Operator {
			return NewHashJoin(l, r, []expr.Expr{col(lk)}, []expr.Expr{col(rk)}, nil)
		}},
		{"HashSemiJoin", func(l, r *ValuesScan) Operator {
			return NewHashSemiJoin(l, r, []expr.Expr{col(lk)}, []expr.Expr{col(rk)})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l, r := NewValuesScan(left, nil), NewValuesScan(right, nil)
			kept := tc.mk(l, r)
			var seen []string
			for _, in := range []int{0, 1, 2, 0, 1} {
				l.Rows, r.Rows = inputs[in].l, inputs[in].r
				got := typed(runAll(t, kept))
				want := typed(runAll(t, tc.mk(NewValuesScan(left, inputs[in].l), NewValuesScan(right, inputs[in].r))))
				if got != want {
					t.Errorf("input %d, re-opened:\ngot:  %v\nwant: %v", in, got, want)
				}
				if held := heldAfterClose(kept); held != "" {
					t.Errorf("input %d: after Close the operator still holds %s", in, held)
				}
				seen = append(seen, want)
			}
			if seen[0] == seen[1] {
				t.Fatalf("degenerate fixture: both inputs give %v", seen[0])
			}
			if tc.name == "Aggregate" && seen[1] != "b:string 1:int 5:int q:string q:string\nd:string 1:int 6:int k:string k:string\n" {
				t.Errorf("second input grouped as %v", seen[1])
			}
		})
	}
}

// typed renders rows with each cell's kind beside its value, so that a
// SUM that turned float by mistake does not read as the int it prints as.
func typed(rows []types.Tuple) string {
	var b strings.Builder
	for _, r := range rows {
		for i, v := range r {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%v:%v", v, v.Kind)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// heldAfterClose names what a closed operator's kept storage still
// references, "" when it is nothing.
func heldAfterClose(op Operator) string {
	var held []string
	values := func(what string, vs []types.Value) {
		for _, v := range vs[:cap(vs)] {
			if v != (types.Value{}) {
				held = append(held, what)
				return
			}
		}
	}
	tuples := func(what string, ts []types.Tuple) {
		for _, t := range ts[:cap(ts)] {
			if t != nil {
				held = append(held, what)
				return
			}
		}
	}
	join := func(j *hashJoin) {
		values("build keys", j.table.keys)
		values("key scratch", j.keys)
		tuples("build rows", j.rows)
		tuples("output window", j.win)
	}
	switch o := op.(type) {
	case *Filter:
		tuples("output window", o.win)
	case *Project:
		tuples("output window", o.win)
	case *Aggregate:
		values("group keys", o.groups.keys)
		values("key scratch", o.gvals)
		tuples("group rows", o.run)
		for _, st := range o.states[:cap(o.states)] {
			if st != (aggState{}) {
				held = append(held, "aggregate states")
				break
			}
		}
		for _, k := range o.keys[:cap(o.keys)] {
			if k != "" {
				held = append(held, "group key strings")
				break
			}
		}
	case *Distinct:
		values("seen keys", o.seen.keys)
		tuples("output window", o.win)
	case *Sort:
		values("sort keys", o.keys)
		tuples("sorted run", o.run)
		for _, kr := range o.buf[:cap(o.buf)] {
			if kr.row != nil {
				held = append(held, "keyed rows")
				break
			}
		}
	case *HashJoin:
		join(&o.hashJoin)
	case *HashSemiJoin:
		join(&o.hashJoin)
	}
	return strings.Join(held, ", ")
}

// TestOperatorContractReopenOverWidenedInput: a kept join whose left
// input grows a column between executions, and loses it again, without
// the join being told (no SetChild), renders each execution at its
// input's width: the output schema a join keeps across executions is
// computed again whenever an input's schema is another.
func TestOperatorContractReopenOverWidenedInput(t *testing.T) {
	lk, ln, ls := strCol("L", "K"), intCol("L", "N"), strCol("L", "S")
	rk, rm := strCol("R", "K"), intCol("R", "M")
	narrow, wide := schema.New(lk, ln), schema.New(lk, ln, ls)
	right := schema.New(rk, rm)
	rows := map[*schema.Schema][]types.Tuple{
		narrow: {{types.Str("a"), types.Int(1)}, {types.Str("b"), types.Int(2)}},
		wide:   {{types.Str("a"), types.Int(1), types.Str("x")}, {types.Str("b"), types.Int(2), types.Str("y")}},
	}
	rrows := []types.Tuple{{types.Str("a"), types.Int(10)}, {types.Str("b"), types.Int(20)}}
	col := expr.NewColRef
	for _, tc := range []struct {
		name string
		mk   func(l, r Operator) Operator
	}{
		{"HashJoin", func(l, r Operator) Operator {
			return NewHashJoin(l, r, []expr.Expr{col(lk)}, []expr.Expr{col(rk)}, nil)
		}},
		{"NestedLoopJoin", func(l, r Operator) Operator {
			return NewNestedLoopJoin(l, r, expr.NewCmp(expr.EQ, col(lk), col(rk)))
		}},
		{"DependentJoin", func(l, r Operator) Operator { return NewDependentJoin(l, r, "") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := NewValuesScan(narrow, rows[narrow])
			kept := tc.mk(l, NewValuesScan(right, rrows))
			for _, in := range []*schema.Schema{narrow, wide, narrow} {
				l.Out, l.Rows = in, rows[in]
				got := runAll(t, kept)
				fresh := tc.mk(NewValuesScan(in, rows[in]), NewValuesScan(right, rrows))
				if want := runAll(t, fresh); typed(got) != typed(want) {
					t.Errorf("left input %d wide, re-opened:\ngot:  %v\nwant: %v", in.Len(), typed(got), typed(want))
				}
				if w := kept.Schema().Len(); w != fresh.Schema().Len() {
					t.Errorf("left input %d wide: the kept join's schema has %d columns, a fresh one's %d", in.Len(), w, fresh.Schema().Len())
				}
			}
		})
	}
}

// TestOperatorContractReexecutionAllocs: every contract case, run as a
// kept tree three times over the same input, allocates no more heap
// objects in its third execution than in its second. Storage an operator
// keeps is sized by its first execution and reset at Open after that, so
// what an execution allocates after the first is what it hands out or
// cannot keep; storage that grows with every execution shows here. A
// remake that costs the same at every execution does not:
// TestKeptOperatorAllocs holds those to a budget. The race detector allocates on its own account, so the
// check holds only without it.
func TestOperatorContractReexecutionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include the race detector's own")
	}
	for _, tc := range contractCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			op, _ := tc.mk()
			runAll(t, op)
			second := mallocs(func() { runAll(t, op) })
			if third := mallocs(func() { runAll(t, op) }); third > second {
				t.Errorf("the third execution made %d heap objects, the second %d", third, second)
			}
		})
	}
}

// mallocs is the number of heap objects f allocates, counted with one P,
// as testing.AllocsPerRun counts them.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestKeptOperatorAllocs: a kept Sort, Aggregate, Distinct and HashJoin
// over 50 rows in 8 groups make at most budget heap objects per
// execution once the first has sized their storage. What is left is
// what each hands out or cannot keep (Aggregate's group rows and key
// strings, the join's output slab) and runAll's own result list. Each
// budget is the count measured when it was set, with no margin: one
// slice remade per execution adds one object (Sort's keyed rows or
// Distinct's window dropped at Close read 4), a key table remade adds
// nine (Aggregate, HashJoin) or seventeen (Distinct), the join's window
// dropped at Close seven, its output schema computed again at every Open
// six. The comment by each case is the count when every Open remade its
// operator's storage.
func TestKeptOperatorAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include the race detector's own")
	}
	k, n := strCol("T", "K"), intCol("T", "N")
	in := schema.New(k, n)
	var rows []types.Tuple
	for i := 0; i < 50; i++ {
		rows = append(rows, types.Tuple{types.Str(fmt.Sprint("g", i%8)), types.Int(int64(i))})
	}
	rk := strCol("R", "K")
	col := expr.NewColRef
	for _, tc := range []struct {
		name   string
		budget float64
		mk     func() Operator
	}{
		{"Sort", 3, func() Operator { // 17 remade
			return NewSort(NewValuesScan(in, rows), []SortKey{{Expr: col(n), Desc: true}})
		}},
		{"Aggregate", 12, func() Operator { // 33 remade
			return NewAggregate(NewValuesScan(in, rows), []expr.Expr{col(k)}, []schema.Column{strCol("G", "K")},
				[]AggSpec{{Func: AggSum, Arg: col(n), OutCol: intCol("G", "S")}})
		}},
		{"Distinct", 3, func() Operator { // 22 remade
			return NewDistinct(NewValuesScan(in, rows))
		}},
		{"HashJoin", 6, func() Operator { // 19 remade
			return NewHashJoin(NewValuesScan(in, rows), NewValuesScan(schema.New(rk, intCol("R", "N")), rows[:8]),
				[]expr.Expr{col(k)}, []expr.Expr{col(rk)}, nil)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			op := tc.mk()
			runAll(t, op)
			got := testing.AllocsPerRun(20, func() { runAll(t, op) })
			t.Logf("%v heap objects per execution, budget %v", got, tc.budget)
			if got > tc.budget {
				t.Errorf("a kept %s made %v heap objects per execution, budget %v", tc.name, got, tc.budget)
			}
		})
	}
}
