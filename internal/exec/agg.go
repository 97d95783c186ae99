package exec

import (
	"fmt"
	"sort"

	"repro/internal/expr"
	"repro/internal/schema"
	"repro/internal/types"
)

// AggFunc enumerates the supported aggregate functions.
type AggFunc uint8

// The aggregate functions.
const (
	AggCount AggFunc = iota
	AggCountStar
	AggSum
	AggMin
	AggMax
	AggAvg
)

// String returns the SQL name of the function.
func (f AggFunc) String() string {
	switch f {
	case AggCount, AggCountStar:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	case AggAvg:
		return "AVG"
	default:
		return "AGG?"
	}
}

// AggSpec is one aggregate computation.
type AggSpec struct {
	Func AggFunc
	Arg  expr.Expr // nil for COUNT(*)
	// OutCol is the output column (fresh AttrID assigned by the planner).
	OutCol schema.Column
}

// Aggregate is a hash-based GROUP BY / aggregation operator. Its output
// schema is the group-by columns followed by one column per aggregate.
// Aggregation always clashes with ReqSync percolation: it "requires an
// accurate tally of incoming tuples" (Section 4.5.2, clash case 3).
type Aggregate struct {
	Child   Operator
	GroupBy []expr.Expr
	// GroupCols are the output columns for the group-by expressions.
	GroupCols []schema.Column
	Aggs      []AggSpec

	out  *schema.Schema
	rows []types.Tuple // the group rows not yet emitted
}

// NewAggregate builds an aggregation operator.
func NewAggregate(child Operator, groupBy []expr.Expr, groupCols []schema.Column, aggs []AggSpec) *Aggregate {
	cols := append([]schema.Column{}, groupCols...)
	for _, a := range aggs {
		cols = append(cols, a.OutCol)
	}
	return &Aggregate{
		Child: child, GroupBy: groupBy, GroupCols: groupCols, Aggs: aggs,
		out: schema.New(cols...),
	}
}

// Schema implements Operator.
func (a *Aggregate) Schema() *schema.Schema { return a.out }

type aggState struct {
	groupVals []types.Value
	count     int64
	sum       float64
	sumIsInt  bool
	sumInt    int64
	min, max  types.Value
	seenAny   bool
}

// Open implements Operator: it drains the child and computes all groups.
func (a *Aggregate) Open(ctx *Context) error {
	exprs := append([]expr.Expr{}, a.GroupBy...)
	for _, sp := range a.Aggs {
		if sp.Arg != nil {
			exprs = append(exprs, sp.Arg)
		}
	}
	if err := a.Child.Open(ctx); err != nil {
		return err
	}
	if err := bindAll("Aggregate", a.Child.Schema(), exprs...); err != nil {
		return err
	}
	groups := make(map[string][]*aggState)
	var order []string
	for {
		b, ok, err := a.Child.NextBatch(ctx, ctx.BatchLen())
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		for _, t := range b {
			if t.HasPlaceholder() {
				return fmt.Errorf("Aggregate received a pending placeholder tuple; plan rewrite must keep aggregation above ReqSync")
			}
			gvals := make([]types.Value, len(a.GroupBy))
			for i, g := range a.GroupBy {
				v, err := g.Eval(ctx.Env, t)
				if err != nil {
					return fmt.Errorf("Aggregate group key %s: %w", g, err)
				}
				gvals[i] = v
			}
			key := types.Tuple(gvals).Key()
			var sts []*aggState
			if existing, ok := groups[key]; ok {
				sts = existing
			} else {
				sts = make([]*aggState, len(a.Aggs))
				for i := range sts {
					sts[i] = &aggState{groupVals: gvals, sumIsInt: true}
				}
				if len(sts) == 0 {
					// Group with no aggregates still needs recording.
					sts = []*aggState{{groupVals: gvals}}
				}
				groups[key] = sts
				order = append(order, key)
			}
			for i, sp := range a.Aggs {
				st := sts[i]
				if sp.Func == AggCountStar {
					st.count++
					continue
				}
				v, err := sp.Arg.Eval(ctx.Env, t)
				if err != nil {
					return fmt.Errorf("Aggregate %s: %w", sp.Arg, err)
				}
				if v.IsNull() {
					continue
				}
				st.count++
				switch sp.Func {
				case AggSum, AggAvg:
					f, err := v.AsFloat()
					if err != nil {
						return err
					}
					st.sum += f
					if v.Kind == types.KindInt {
						st.sumInt += v.I
					} else {
						st.sumIsInt = false
					}
				case AggMin:
					if !st.seenAny || v.Compare(st.min) < 0 {
						st.min = v
					}
				case AggMax:
					if !st.seenAny || v.Compare(st.max) > 0 {
						st.max = v
					}
				}
				st.seenAny = true
			}
		}
	}
	// Global aggregate over an empty input still emits one row.
	if len(order) == 0 && len(a.GroupBy) == 0 && len(a.Aggs) > 0 {
		sts := make([]*aggState, len(a.Aggs))
		for i := range sts {
			sts[i] = &aggState{sumIsInt: true}
		}
		groups[""] = sts
		order = append(order, "")
	}
	sort.Strings(order) // deterministic output order
	a.rows = make([]types.Tuple, 0, len(order))
	for _, key := range order {
		sts := groups[key]
		row := append(types.Tuple{}, sts[0].groupVals...)
		for i, sp := range a.Aggs {
			st := sts[i]
			switch sp.Func {
			case AggCount, AggCountStar:
				row = append(row, types.Int(st.count))
			case AggSum:
				if st.count == 0 {
					row = append(row, types.Null())
				} else if st.sumIsInt {
					row = append(row, types.Int(st.sumInt))
				} else {
					row = append(row, types.Float(st.sum))
				}
			case AggAvg:
				if st.count == 0 {
					row = append(row, types.Null())
				} else {
					row = append(row, types.Float(st.sum/float64(st.count)))
				}
			case AggMin:
				if !st.seenAny {
					row = append(row, types.Null())
				} else {
					row = append(row, st.min)
				}
			case AggMax:
				if !st.seenAny {
					row = append(row, types.Null())
				} else {
					row = append(row, st.max)
				}
			}
		}
		a.rows = append(a.rows, row)
	}
	return nil
}

// NextBatch implements Operator by handing out windows of the group rows
// materialized at Open.
func (a *Aggregate) NextBatch(ctx *Context, max int) (Batch, bool, error) {
	return TakeBatch(&a.rows, max)
}

// Close implements Operator.
func (a *Aggregate) Close() error {
	a.rows = nil
	return a.Child.Close()
}

// Children implements Operator.
func (a *Aggregate) Children() []Operator { return []Operator{a.Child} }

// SetChild implements Operator.
func (a *Aggregate) SetChild(i int, op Operator) {
	if i != 0 {
		panic("Aggregate has a single child")
	}
	a.Child = op
}

// Name implements Operator.
func (a *Aggregate) Name() string { return "Aggregate" }

// Describe implements Operator.
func (a *Aggregate) Describe() string {
	s := ""
	for i, g := range a.GroupBy {
		if i > 0 {
			s += ", "
		}
		s += g.String()
	}
	if len(a.Aggs) > 0 {
		if s != "" {
			s += "; "
		}
		for i, sp := range a.Aggs {
			if i > 0 {
				s += ", "
			}
			if sp.Func == AggCountStar {
				s += "COUNT(*)"
			} else {
				s += fmt.Sprintf("%s(%s)", sp.Func, sp.Arg)
			}
		}
	}
	return s
}
