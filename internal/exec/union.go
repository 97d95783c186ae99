package exec

import (
	"errors"
	"fmt"

	"repro/internal/schema"
)

// UnionAll is the bag union: it streams its left input, then its right.
// Inputs must be positionally compatible; the output carries the left
// input's attribute identities.
//
// UnionAll never clashes with a ReqSync — it neither interprets attribute
// values nor needs an accurate tuple tally — which is exactly why the
// paper's percolation step rewrites a clashing set union as "a 'Select
// Distinct' over a non-clashing bag union operator" (Section 4.5.2). The
// planner lowers SQL UNION to Distinct(UnionAll(...)) so that rewrite is
// the plan's natural form.
type UnionAll struct {
	binary
	onRight bool
	opened  bool
}

// NewUnionAll builds a bag union. It validates positional compatibility.
func NewUnionAll(left, right Operator) (*UnionAll, error) {
	l, r := left.Schema(), right.Schema()
	if l.Len() != r.Len() {
		return nil, fmt.Errorf("UNION inputs have %d and %d columns", l.Len(), r.Len())
	}
	for i := range l.Cols {
		if l.Cols[i].Type != r.Cols[i].Type {
			return nil, fmt.Errorf("UNION column %d: %s vs %s",
				i+1, l.Cols[i].Type, r.Cols[i].Type)
		}
	}
	return &UnionAll{binary: binary{left, right}}, nil
}

// Schema implements Operator: the left input names the output.
func (u *UnionAll) Schema() *schema.Schema { return u.Left.Schema() }

// Open implements Operator.
func (u *UnionAll) Open(ctx *Context) error {
	if err := u.Left.Open(ctx); err != nil {
		return err
	}
	if err := u.Right.Open(ctx); err != nil {
		// Close is gated on opened, so the half-open left subtree must be
		// released here or it leaks.
		return errors.Join(err, u.Left.Close())
	}
	u.onRight = false
	u.opened = true
	return nil
}

// NextBatch implements Operator: left batches until exhausted, then
// right batches. Batches never mix inputs (attribute identities are the
// left's either way; keeping the boundary just simplifies reasoning).
func (u *UnionAll) NextBatch(ctx *Context, max int) (Batch, bool, error) {
	if !u.opened {
		return nil, false, fmt.Errorf("UnionAll: NextBatch before Open")
	}
	if !u.onRight {
		b, ok, err := u.Left.NextBatch(ctx, max)
		if err != nil {
			return nil, false, err
		}
		if ok {
			return b, true, nil
		}
		u.onRight = true
	}
	return u.Right.NextBatch(ctx, max)
}

// recycle implements recycler: the union emits its inputs' tuples.
func (u *UnionAll) recycle() {
	grantRecycling(u.Left)
	grantRecycling(u.Right)
}

// Close implements Operator.
func (u *UnionAll) Close() error {
	if !u.opened {
		return nil
	}
	u.opened = false
	return errors.Join(u.Left.Close(), u.Right.Close())
}

// Name implements Operator.
func (u *UnionAll) Name() string { return "Union All" }

// Describe implements Operator.
func (u *UnionAll) Describe() string { return "" }
