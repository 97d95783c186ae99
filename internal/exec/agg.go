package exec

import (
	"fmt"
	"slices"
	"strings"

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
	Unary
	GroupBy []expr.Expr
	// GroupCols are the output columns for the group-by expressions.
	GroupCols []schema.Column
	Aggs      []AggSpec

	out *schema.Schema
	// exprs are GroupBy then each Aggs' Arg, and cols their in-row
	// columns, by Open (see columns).
	exprs []expr.Expr
	cols  []int
	// Group g's key is groups.key(g) and its states are
	// states[g*len(Aggs):(g+1)*len(Aggs)]: neither a group nor an input
	// row allocates once the storage has grown.
	groups keyTable
	states []aggState
	gvals  []types.Value // scratch: the group key of the row being read
	order  []int         // the groups in output order
	keys   []string      // each group's Tuple.Key
	run    []types.Tuple // the group rows, in order
	rows   []types.Tuple // the tail of run not yet emitted
}

// NewAggregate builds an aggregation operator.
func NewAggregate(child Operator, groupBy []expr.Expr, groupCols []schema.Column, aggs []AggSpec) *Aggregate {
	cols := append([]schema.Column{}, groupCols...)
	for _, a := range aggs {
		cols = append(cols, a.OutCol)
	}
	return &Aggregate{
		Unary: Unary{child}, GroupBy: groupBy, GroupCols: groupCols, Aggs: aggs,
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
	a.exprs = append(a.exprs[:0], a.GroupBy...)
	for _, sp := range a.Aggs {
		a.exprs = append(a.exprs, sp.Arg) // nil for COUNT(*): bindAll skips it
	}
	grantRecycling(a.Child) // groups are interned by value
	if err := a.Child.Open(ctx); err != nil {
		return err
	}
	if err := bindAll("Aggregate", a.Child.Schema(), a.exprs...); err != nil {
		return err
	}
	a.cols = columns(a.cols, a.exprs...)
	groupCols, argCols := a.cols[:len(a.GroupBy)], a.cols[len(a.GroupBy):]
	a.groups.reset(len(a.GroupBy), types.Value.SameKey)
	a.states = a.states[:0]
	if len(a.gvals) != len(a.GroupBy) {
		a.gvals = make([]types.Value, len(a.GroupBy))
	}
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
				a.gvals[i] = v
			}
			g, added := a.groups.intern(a.gvals)
			if added {
				a.newGroup()
			}
			sts := a.states[g*len(a.Aggs):]
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
	if a.groups.len() == 0 && len(a.GroupBy) == 0 && len(a.Aggs) > 0 {
		a.groups.add(nil)
		a.newGroup()
	}
	// Deterministic output order: by Tuple.Key, rendered once per group;
	// groups whose keys render alike (see Tuple.Key) stay in first-seen order.
	n := a.groups.len()
	a.order, a.keys = slices.Grow(a.order[:0], n), slices.Grow(a.keys[:0], n)
	for g := range n {
		a.order = append(a.order, g)
		a.keys = append(a.keys, types.Tuple(a.groups.key(g)).Key())
	}
	slices.SortStableFunc(a.order, func(g, h int) int { return strings.Compare(a.keys[g], a.keys[h]) })
	a.run = slices.Grow(a.run[:0], n)
	// The group rows are cut from one slab, a new one each execution:
	// the consumer keeps them.
	width := len(a.GroupBy) + len(a.Aggs)
	slab := make([]types.Value, n*width)
	for _, g := range a.order {
		row := append(slab[:0:width], a.groups.key(g)...)
		slab = slab[width:]
		for i, sp := range a.Aggs {
			st := a.states[g*len(a.Aggs)+i]
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
		a.run = append(a.run, row)
	}
	a.rows = a.run
	return nil
}

// newGroup appends the states of a new group.
func (a *Aggregate) newGroup() {
	for range a.Aggs {
		a.states = append(a.states, aggState{sumIsInt: true})
	}
}

// NextBatch implements Operator by handing out windows of the group rows
// materialized at Open.
func (a *Aggregate) NextBatch(ctx *Context, max int) (Batch, bool, error) {
	return TakeBatch(&a.rows, max)
}

// Close implements Operator.
func (a *Aggregate) Close() error {
	a.groups.empty()
	clear(a.states) // their min and max
	clear(a.gvals)
	clear(a.keys)
	clear(a.run)
	a.rows = nil
	return a.Child.Close()
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
