package exec

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/schema"
	"repro/internal/types"
)

// Filter passes through tuples satisfying a predicate (the "Select"
// operator of the paper's figures; named Filter here to avoid confusion
// with the SQL keyword).
type Filter struct {
	Unary
	Pred expr.Expr

	win []types.Tuple // the window NextBatch hands out, reused (see Batch)
}

// NewFilter builds a selection over child.
func NewFilter(child Operator, pred expr.Expr) *Filter {
	return &Filter{Unary: Unary{child}, Pred: pred}
}

// Schema implements Operator.
func (f *Filter) Schema() *schema.Schema { return f.Child.Schema() }

// Open implements Operator.
func (f *Filter) Open(ctx *Context) error {
	if err := f.Child.Open(ctx); err != nil {
		return err
	}
	return bindAll("Filter", f.Child.Schema(), f.Pred)
}

// NextBatch implements Operator: the predicate runs over whole child
// batches, with survivors collected into the filter's own window (child
// batches may be views of the child's internal storage and are never
// mutated in place). Empty survivor sets loop to the next child batch so a
// true result is always non-empty.
func (f *Filter) NextBatch(ctx *Context, max int) (Batch, bool, error) {
	for {
		in, ok, err := f.Child.NextBatch(ctx, max)
		if err != nil || !ok {
			return nil, false, err
		}
		out := f.win[:0]
		for _, t := range in {
			ok, err := expr.Holds(f.Pred, ctx.Env, t)
			if err != nil {
				return nil, false, fmt.Errorf("Filter %s: %w", f.Pred, err)
			}
			if ok {
				out = append(out, t)
			}
		}
		f.win = out
		if len(out) > 0 {
			return out, true, nil
		}
	}
}

// recycle implements recycler: the filter emits its child's tuples.
func (f *Filter) recycle() { grantRecycling(f.Child) }

// Close implements Operator.
func (f *Filter) Close() error {
	clear(f.win[:cap(f.win)])
	return f.Child.Close()
}

// Name implements Operator.
func (f *Filter) Name() string { return "Select" }

// Describe implements Operator.
func (f *Filter) Describe() string { return f.Pred.String() }

// Project evaluates one expression per output column. Plain column
// references pass through with their original attribute identity, so
// operators above a projection (Sort, ReqSync) can still address them;
// computed expressions get fresh AttrIDs assigned by the planner.
type Project struct {
	Unary
	Exprs []expr.Expr
	Out   *schema.Schema

	win  []types.Tuple // the window NextBatch hands out, reused (see Batch)
	slab rowSlab       // what the output rows are cut from
	cols []int         // Exprs' in-row columns, by Open (see columns)
}

// NewProject builds a projection.
func NewProject(child Operator, exprs []expr.Expr, out *schema.Schema) *Project {
	return &Project{Unary: Unary{child}, Exprs: exprs, Out: out}
}

// Schema implements Operator.
func (p *Project) Schema() *schema.Schema { return p.Out }

// Open implements Operator.
func (p *Project) Open(ctx *Context) error {
	grantRecycling(p.Child) // a row is projected from its input at once
	if err := p.Child.Open(ctx); err != nil {
		return err
	}
	if err := bindAll("Project", p.Child.Schema(), p.Exprs...); err != nil {
		return err
	}
	p.cols = columns(p.cols, p.Exprs...)
	return nil
}

// recycle implements recycler: the output slab is refilled per batch.
func (p *Project) recycle() { p.slab.granted = true }

// NextBatch implements Operator by mapping the projection over a
// whole child batch. The batch's rows are cut from the projection's slab,
// and handed out in its own window, reused (see Batch).
func (p *Project) NextBatch(ctx *Context, max int) (Batch, bool, error) {
	in, ok, err := p.Child.NextBatch(ctx, max)
	if err != nil || !ok {
		return nil, false, err
	}
	out := p.win[:0]
	width := len(p.Exprs)
	p.slab.next()
	p.slab.room(len(in)*width, len(in)*width)
	for _, t := range in {
		row := p.slab.cut(width)
		for i, e := range p.Exprs {
			v, err := read(ctx.Env, e, p.cols[i], t)
			if err != nil {
				return nil, false, fmt.Errorf("Project %s: %w", e, err)
			}
			row[i] = v
		}
		out = append(out, row)
	}
	p.win = out
	return out, true, nil
}

// Close implements Operator.
func (p *Project) Close() error {
	clear(p.win[:cap(p.win)])
	p.slab.close()
	return p.Child.Close()
}

// Name implements Operator.
func (p *Project) Name() string { return "Project" }

// Describe implements Operator.
func (p *Project) Describe() string {
	s := ""
	for i, e := range p.Exprs {
		if i > 0 {
			s += ", "
		}
		s += e.String()
	}
	return s
}
