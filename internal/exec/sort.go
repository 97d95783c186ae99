package exec

import (
	"fmt"
	"slices"

	"repro/internal/expr"
	"repro/internal/schema"
	"repro/internal/types"
)

// SortKey is one ORDER BY key.
type SortKey struct {
	Expr expr.Expr
	Desc bool
}

// Sort fully materializes its input at Open and emits it ordered. A sort
// always clashes with ReqSync when its keys are call-supplied attributes
// (it must observe final values), which is why the paper's Figure 3 plan
// has Sort above ReqSync.
type Sort struct {
	Unary
	Keys []SortKey

	cols []int         // Keys' in-row columns, by Open (see columns)
	buf  []keyedRow    // the input rows, sorted at the end of Open
	keys []types.Value // every row's keys, back to back
	run  []types.Tuple // the sorted rows
	rows []types.Tuple // the tail of run not yet emitted
}

// keyedRow is a row Sort holds and where its keys start in Sort.keys.
type keyedRow struct {
	row types.Tuple
	at  int
}

// NewSort builds a sort over child.
func NewSort(child Operator, keys []SortKey) *Sort {
	return &Sort{Unary: Unary{child}, Keys: keys}
}

// Schema implements Operator.
func (s *Sort) Schema() *schema.Schema { return s.Child.Schema() }

// Open implements Operator.
func (s *Sort) Open(ctx *Context) error {
	if err := s.Child.Open(ctx); err != nil {
		return err
	}
	s.cols = s.cols[:0]
	for _, k := range s.Keys {
		if err := bindAll("Sort", s.Child.Schema(), k.Expr); err != nil {
			return err
		}
		s.cols = append(s.cols, expr.Column(k.Expr))
	}
	s.buf, s.keys = s.buf[:0], s.keys[:0]
	for {
		b, ok, err := s.Child.NextBatch(ctx, ctx.BatchLen())
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		s.buf, s.keys = slices.Grow(s.buf, len(b)), slices.Grow(s.keys, len(b)*len(s.Keys))
		for _, t := range b {
			s.buf = append(s.buf, keyedRow{row: t, at: len(s.keys)})
			for i, k := range s.Keys {
				v, err := read(ctx.Env, k.Expr, s.cols[i], t)
				if err != nil {
					return fmt.Errorf("Sort key %s: %w", k.Expr, err)
				}
				s.keys = append(s.keys, v)
			}
		}
	}
	slices.SortStableFunc(s.buf, func(x, y keyedRow) int {
		for i, k := range s.Keys {
			if c := s.keys[x.at+i].Compare(s.keys[y.at+i]); c != 0 {
				if k.Desc {
					return -c
				}
				return c
			}
		}
		return 0
	})
	s.run = slices.Grow(s.run[:0], len(s.buf))
	for _, kr := range s.buf {
		s.run = append(s.run, kr.row)
	}
	s.rows = s.run
	return nil
}

// NextBatch implements Operator by handing out windows of the sorted run
// materialized at Open.
func (s *Sort) NextBatch(ctx *Context, max int) (Batch, bool, error) {
	return TakeBatch(&s.rows, max)
}

// Close implements Operator.
func (s *Sort) Close() error {
	clear(s.buf)
	clear(s.keys)
	clear(s.run)
	s.rows = nil
	return s.Child.Close()
}

// Name implements Operator.
func (s *Sort) Name() string { return "Sort" }

// Describe implements Operator.
func (s *Sort) Describe() string {
	out := ""
	for i, k := range s.Keys {
		if i > 0 {
			out += ", "
		}
		out += k.Expr.String()
		if k.Desc {
			out += " DESC"
		}
	}
	return out
}

// KeyAttrs returns the attributes referenced by the sort keys.
func (s *Sort) KeyAttrs() map[schema.AttrID]bool {
	set := make(map[schema.AttrID]bool)
	for _, k := range s.Keys {
		k.Expr.CollectAttrs(set)
	}
	return set
}

// Limit emits at most N tuples. It is "existential" in the paper's clash
// taxonomy: the number of surviving tuples below it must be final, so a
// ReqSync can never be pulled above it.
type Limit struct {
	Unary
	N    int
	seen int
}

// NewLimit builds a limit over child.
func NewLimit(child Operator, n int) *Limit { return &Limit{Unary: Unary{child}, N: n} }

// Schema implements Operator.
func (l *Limit) Schema() *schema.Schema { return l.Child.Schema() }

// Open implements Operator.
func (l *Limit) Open(ctx *Context) error {
	l.seen = 0
	return l.Child.Open(ctx)
}

// NextBatch implements Operator. The pull from the child is capped
// at the remaining quota, not at max: a limit must never over-draw its
// child, because below an EVScan every extra tuple is an extra external
// call.
func (l *Limit) NextBatch(ctx *Context, max int) (Batch, bool, error) {
	rem := l.N - l.seen
	if rem <= 0 {
		return nil, false, nil
	}
	if max > rem {
		max = rem
	}
	b, ok, err := l.Child.NextBatch(ctx, max)
	if err != nil || !ok {
		return nil, false, err
	}
	l.seen += len(b)
	return b, true, nil
}

// recycle implements recycler: the limit emits its child's tuples.
func (l *Limit) recycle() { grantRecycling(l.Child) }

// Close implements Operator.
func (l *Limit) Close() error { return l.Child.Close() }

// Name implements Operator.
func (l *Limit) Name() string { return "Limit" }

// Describe implements Operator.
func (l *Limit) Describe() string { return fmt.Sprintf("%d", l.N) }

// Distinct eliminates duplicate tuples. Like aggregation, it requires an
// accurate tally of incoming tuples and therefore always clashes with
// ReqSync percolation (clash case 3 in Section 4.5.2).
type Distinct struct {
	Unary
	seen keyTable // the tuples emitted so far, compared cell by cell
	win  Batch    // what NextBatch handed out last
}

// NewDistinct builds a duplicate-eliminating operator.
func NewDistinct(child Operator) *Distinct { return &Distinct{Unary: Unary{child}} }

// Schema implements Operator.
func (d *Distinct) Schema() *schema.Schema { return d.Child.Schema() }

// Open implements Operator.
func (d *Distinct) Open(ctx *Context) error {
	if err := d.Child.Open(ctx); err != nil {
		return err
	}
	d.seen.reset(d.Child.Schema().Len(), types.Value.SameKey)
	return nil
}

// NextBatch implements Operator: duplicate elimination over whole
// child batches, survivors in the window it refills, looping until at
// least one new tuple appears or the child is exhausted.
func (d *Distinct) NextBatch(ctx *Context, max int) (Batch, bool, error) {
	for {
		in, ok, err := d.Child.NextBatch(ctx, max)
		if err != nil || !ok {
			return nil, false, err
		}
		d.win = slices.Grow(d.win[:0], len(in))
		for _, t := range in {
			if _, added := d.seen.intern(t); added {
				d.win = append(d.win, t)
			}
		}
		if len(d.win) > 0 {
			return d.win, true, nil
		}
	}
}

// Close implements Operator.
func (d *Distinct) Close() error {
	d.seen.empty()
	clear(d.win[:cap(d.win)])
	return d.Child.Close()
}

// Name implements Operator.
func (d *Distinct) Name() string { return "Distinct" }

// Describe implements Operator.
func (d *Distinct) Describe() string { return "" }
