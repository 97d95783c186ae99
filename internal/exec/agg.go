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
	// cols are GroupBy's in-row columns then each Aggs' Arg's, by Open
	// (see columns).
	cols []int
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

// aggState is the running state of one aggregate of one group.
type aggState struct {
	count    int64
	sum      float64
	sumIsInt bool
	sumInt   int64
	min, max types.Value
	seenAny  bool
}

// Open implements Operator: it drains the child and computes all groups.
func (a *Aggregate) Open(ctx *Context) error {
	exprs := append([]expr.Expr{}, a.GroupBy...)
	for _, sp := range a.Aggs {
		exprs = append(exprs, sp.Arg) // nil for COUNT(*): bindAll skips it
	}
	grantRecycling(a.Child) // groups are interned by value
	if err := a.Child.Open(ctx); err != nil {
		return err
	}
	if err := bindAll("Aggregate", a.Child.Schema(), exprs...); err != nil {
		return err
	}
	a.cols = columns(a.cols, exprs...)
	groupCols, argCols := a.cols[:len(a.GroupBy)], a.cols[len(a.GroupBy):]
	// Group g's key is groups.key(g) and its states are
	// states[g*len(a.Aggs):(g+1)*len(a.Aggs)]: a new group costs no
	// allocation of its own, and an input row none at all.
	groups := newKeyTable(len(a.GroupBy), types.Value.SameKey)
	var states []aggState
	newGroup := func() {
		for range a.Aggs {
			states = append(states, aggState{sumIsInt: true})
		}
	}
	gvals := make([]types.Value, len(a.GroupBy))
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
			for i, g := range a.GroupBy {
				v, err := read(ctx.Env, g, groupCols[i], t)
				if err != nil {
					return fmt.Errorf("Aggregate group key %s: %w", g, err)
				}
				gvals[i] = v
			}
			g, added := groups.intern(gvals)
			if added {
				newGroup()
			}
			sts := states[g*len(a.Aggs):]
			for i, sp := range a.Aggs {
				st := &sts[i]
				if sp.Func == AggCountStar {
					st.count++
					continue
				}
				v, err := read(ctx.Env, sp.Arg, argCols[i], t)
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
	if groups.len() == 0 && len(a.GroupBy) == 0 && len(a.Aggs) > 0 {
		groups.add(nil)
		newGroup()
	}
	// Deterministic output order: by Tuple.Key, rendered once per group;
	// groups whose keys render alike (see Tuple.Key) stay in first-seen order.
	order := make([]int, groups.len())
	keys := make([]string, groups.len())
	for g := range order {
		order[g], keys[g] = g, types.Tuple(groups.key(g)).Key()
	}
	sort.SliceStable(order, func(i, j int) bool { return keys[order[i]] < keys[order[j]] })
	a.rows = make([]types.Tuple, 0, len(order))
	for _, g := range order {
		row := make(types.Tuple, 0, len(a.GroupBy)+len(a.Aggs))
		row = append(row, groups.key(g)...)
		for i, sp := range a.Aggs {
			st := states[g*len(a.Aggs)+i]
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
