package exec

import (
	"errors"
	"fmt"

	"repro/internal/expr"
	"repro/internal/schema"
	"repro/internal/types"
)

// NestedLoopJoin is the engine's only join algorithm, as in Redbase ("the
// only available join technique is nested-loop join", Section 5). With a
// nil predicate it degenerates to a cross-product, which is how the async
// rewriter's join→σ(×) transformation represents rewritten joins.
type NestedLoopJoin struct {
	Left, Right Operator
	Pred        expr.Expr // nil for a pure cross-product

	cut      joinCut
	curLeft  types.Tuple // the outer tuple being joined, while haveLeft
	haveLeft bool        // not curLeft != nil: a narrowed join below may emit empty rows
	leftDone bool
	opened   bool
}

// NewNestedLoopJoin builds a theta-join (or cross-product when pred is nil).
func NewNestedLoopJoin(left, right Operator, pred expr.Expr) *NestedLoopJoin {
	return &NestedLoopJoin{Left: left, Right: right, Pred: pred}
}

// Schema implements Operator.
func (j *NestedLoopJoin) Schema() *schema.Schema {
	return j.cut.schema(j.Left.Schema(), j.Right.Schema())
}

// Narrow restricts the join's output to its inputs' columns in need, which
// must name what Pred reads (see joinCut).
func (j *NestedLoopJoin) Narrow(need map[schema.AttrID]bool) { j.cut.narrow(need) }

// Open implements Operator.
func (j *NestedLoopJoin) Open(ctx *Context) error {
	j.cut.reset() // children may have been swapped by a rewrite
	if err := j.Left.Open(ctx); err != nil {
		return err
	}
	j.curLeft, j.haveLeft = nil, false
	j.leftDone = false
	j.opened = true
	return bindAll("Join", j.Schema(), j.Pred)
}

// NextBatch implements Operator. The left (outer) side advances one tuple
// at a time, and only while fewer than max joined tuples are buffered, so
// a LIMIT above the join never makes an outer subtree issue external
// calls a tuple-at-a-time consumer would not have (the draw discipline in
// the package comment). The right side is re-opened per outer tuple and
// pulled in batches of the space left: that many joined tuples need at
// least that many inner ones.
func (j *NestedLoopJoin) NextBatch(ctx *Context, max int) (Batch, bool, error) {
	if !j.opened {
		return nil, false, fmt.Errorf("NestedLoopJoin: NextBatch before Open")
	}
	if err := checkMax(max); err != nil {
		return nil, false, err
	}
	var out Batch
	for len(out) < max && !j.leftDone {
		if !j.haveLeft {
			lb, ok, err := j.Left.NextBatch(ctx, 1)
			if err != nil {
				return nil, false, err
			}
			if !ok {
				j.leftDone = true
				break
			}
			j.curLeft, j.haveLeft = lb[0], true
			if err := j.Right.Open(ctx); err != nil {
				return nil, false, err
			}
		}
		rb, ok, err := j.Right.NextBatch(ctx, max-len(out))
		if err != nil {
			return nil, false, err
		}
		if !ok {
			if err := j.Right.Close(); err != nil {
				return nil, false, err
			}
			j.curLeft, j.haveLeft = nil, false
			continue
		}
		for _, rt := range rb {
			joined := j.cut.emit(j.curLeft, rt, max)
			if j.Pred != nil {
				v, err := j.Pred.Eval(ctx.Env, joined)
				if err != nil {
					return nil, false, fmt.Errorf("Join %s: %w", j.Pred, err)
				}
				if !v.Truthy() {
					j.cut.retract(joined)
					continue
				}
			}
			out = append(out, joined)
		}
	}
	if len(out) == 0 {
		return nil, false, nil
	}
	return out, true, nil
}

// Close implements Operator. Both subtrees are always closed (the right
// may be mid-iteration when an error unwinds through us) and neither
// close error masks the other.
func (j *NestedLoopJoin) Close() error {
	if !j.opened {
		return nil
	}
	j.opened = false
	j.curLeft, j.haveLeft = nil, false
	j.cut.reset()
	return errors.Join(j.Left.Close(), j.Right.Close())
}

// Children implements Operator.
func (j *NestedLoopJoin) Children() []Operator { return []Operator{j.Left, j.Right} }

// SetChild implements Operator.
func (j *NestedLoopJoin) SetChild(i int, op Operator) {
	switch i {
	case 0:
		j.Left = op
	case 1:
		j.Right = op
	default:
		panic("NestedLoopJoin has two children")
	}
	j.cut.reset()
}

// Name implements Operator.
func (j *NestedLoopJoin) Name() string {
	if j.Pred == nil {
		return "Cross-Product"
	}
	return "Join"
}

// Describe implements Operator.
func (j *NestedLoopJoin) Describe() string {
	if j.Pred == nil {
		return ""
	}
	return j.Pred.String()
}

// joinCut is what the nested-loop and the hash join share: which columns
// of their inputs a joined row holds, and the slab the rows are cut from.
// need, from the planner's required-attributes pass, names what is read
// above the join or, in the joined row, by the join's own predicate (hash
// keys are read from the inputs). Nil keeps every column.
type joinCut struct {
	need        map[schema.AttrID]bool
	out         *schema.Schema
	left, right []int         // where, in a left and in a right tuple, the emitted columns sit
	slab        []types.Value // joined rows are cut from it; see Batch
	slabRows    int           // rows the next slab holds; doubles up to the batch size, as a TableScan's
}

func (c *joinCut) narrow(need map[schema.AttrID]bool) {
	c.need = need
	c.reset()
}

// reset forgets the schema computed from the children and the slab.
func (c *joinCut) reset() {
	c.out, c.slab, c.slabRows = nil, nil, 8
}

// schema returns the join's output schema: left's columns, then right's,
// without those need does not name.
func (c *joinCut) schema(left, right *schema.Schema) *schema.Schema {
	if c.out != nil {
		return c.out
	}
	var cols []schema.Column
	pick := func(s *schema.Schema) []int {
		at := make([]int, 0, s.Len())
		for i, col := range s.Cols {
			if c.need == nil || c.need[col.ID] {
				at = append(at, i)
				cols = append(cols, col)
			}
		}
		return at
	}
	c.left, c.right = pick(left), pick(right)
	c.out = schema.New(cols...)
	return c.out
}

// emit cuts the joined row of lt and rt from the slab as a three-index
// slice. A full slab is replaced, never grown; batch bounds how many rows
// the new one is sized for.
func (c *joinCut) emit(lt, rt types.Tuple, batch int) types.Tuple {
	width := len(c.left) + len(c.right)
	if cap(c.slab)-len(c.slab) < width {
		rows := min(c.slabRows, batch)
		c.slab = make([]types.Value, 0, width*rows)
		c.slabRows = 2 * rows
	}
	mark := len(c.slab)
	c.slab = c.slab[:mark+width]
	row := c.slab[mark : mark+width : mark+width]
	for k, i := range c.left {
		row[k] = lt[i]
	}
	for k, i := range c.right {
		row[len(c.left)+k] = rt[i]
	}
	return row
}

// retract takes back the row emit returned last, which the join's
// predicate rejected: nothing else has seen it.
func (c *joinCut) retract(row types.Tuple) {
	c.slab = c.slab[:len(c.slab)-len(row)]
}

// DependentJoin supplies each outer tuple's column values as correlated
// bindings to its right subtree, then re-opens it — the binding-passing
// join the paper requires for virtual tables ("the Dependent Join operator
// requires each GetNext call to its right child to include a binding from
// its left child", Section 4.1).
type DependentJoin struct {
	Left, Right Operator
	// BindDesc documents the binding for EXPLAIN output, e.g.
	// "Sigs.Name -> WebCount.T1"; it has no execution role.
	BindDesc string

	out      *schema.Schema
	buf      []types.Tuple  // joined tuples not yet emitted
	binder   BindingBatcher // the right subtree, when it offers BindBatch
	leftDone bool
	opened   bool
}

// NewDependentJoin builds a dependent join.
func NewDependentJoin(left, right Operator, bindDesc string) *DependentJoin {
	return &DependentJoin{Left: left, Right: right, BindDesc: bindDesc}
}

// Schema implements Operator.
func (j *DependentJoin) Schema() *schema.Schema {
	if j.out == nil {
		j.out = j.Left.Schema().Concat(j.Right.Schema())
	}
	return j.out
}

// Open implements Operator.
func (j *DependentJoin) Open(ctx *Context) error {
	j.out = nil
	if err := j.Left.Open(ctx); err != nil {
		return err
	}
	j.buf = nil
	j.leftDone = false
	j.opened = true
	j.binder, _ = j.Right.(BindingBatcher)
	return nil
}

// NextBatch implements Operator, preserving the per-binding output order
// (all of outer tuple i's rows before any of outer tuple i+1's). Outer
// tuples are bound only while fewer than max joined tuples are buffered;
// rows beyond max are carried over to the next call.
//
// When the right subtree can service a whole batch of correlated bindings
// at once (BindingBatcher — the AEVScan batch-registration path), as many
// outer tuples as there is space for are pulled and bound in one round, so
// every external call of the round reaches the request pump before the
// enclosing ReqSync first waits. Otherwise each round binds ONE outer
// tuple and runs the right subtree through Open → drain → Close under it:
// a synchronous EVScan calls out at Open, so binding further ahead would
// issue calls a tuple-at-a-time consumer never asked for.
func (j *DependentJoin) NextBatch(ctx *Context, max int) (Batch, bool, error) {
	if !j.opened {
		return nil, false, fmt.Errorf("DependentJoin: NextBatch before Open")
	}
	if err := checkMax(max); err != nil {
		return nil, false, err
	}
	for len(j.buf) < max && !j.leftDone {
		want := 1
		if j.binder != nil {
			want = max - len(j.buf)
		}
		lb, ok, err := j.Left.NextBatch(ctx, want)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			j.leftDone = true
			break
		}
		if j.binder != nil {
			err = j.bindRound(ctx, lb)
		} else {
			err = j.bindOne(ctx, lb[0])
		}
		if err != nil {
			return nil, false, err
		}
	}
	return TakeBatch(&j.buf, max)
}

// bindRound services one outer batch through the right subtree's
// BindBatch. The round's joined rows are cut from one slab as three-index
// slices (see Batch).
func (j *DependentJoin) bindRound(ctx *Context, lb Batch) error {
	rows, err := j.binder.BindBatch(ctx, j.Left.Schema().Cols, lb)
	if err != nil {
		return err
	}
	width := 0
	for fi, rs := range rows {
		for _, rt := range rs {
			width += len(lb[fi]) + len(rt)
		}
	}
	slab := make([]types.Value, 0, width)
	for fi, rs := range rows {
		for _, rt := range rs {
			mark := len(slab)
			slab = append(append(slab, lb[fi]...), rt...)
			j.buf = append(j.buf, slab[mark:len(slab):len(slab)])
		}
	}
	return nil
}

// bindOne pushes one outer tuple as a binding frame, so the right subtree
// can evaluate its parameter expressions against it, and runs the subtree
// through a full Open → drain → Close cycle. The frame never outlives the
// call, whatever fails.
func (j *DependentJoin) bindOne(ctx *Context, lt types.Tuple) error {
	ctx.Env.PushFrame(j.Left.Schema().Cols, lt)
	defer ctx.Env.PopFrame()
	if err := j.Right.Open(ctx); err != nil {
		return err
	}
	for {
		rb, ok, err := j.Right.NextBatch(ctx, ctx.BatchLen())
		if err != nil {
			return err
		}
		if !ok {
			return j.Right.Close()
		}
		for _, rt := range rb {
			j.buf = append(j.buf, lt.Concat(rt))
		}
	}
}

// Close implements Operator. Both subtrees are always closed (the right
// may be mid-iteration when an error unwinds through us) and neither
// close error masks the other.
func (j *DependentJoin) Close() error {
	if !j.opened {
		return nil
	}
	j.opened = false
	j.buf = nil
	return errors.Join(j.Left.Close(), j.Right.Close())
}

// Children implements Operator.
func (j *DependentJoin) Children() []Operator { return []Operator{j.Left, j.Right} }

// SetChild implements Operator.
func (j *DependentJoin) SetChild(i int, op Operator) {
	switch i {
	case 0:
		j.Left = op
	case 1:
		j.Right = op
	default:
		panic("DependentJoin has two children")
	}
	j.out = nil
}

// Name implements Operator.
func (j *DependentJoin) Name() string { return "Dependent Join" }

// Describe implements Operator.
func (j *DependentJoin) Describe() string { return j.BindDesc }
