// Package exec is a batchwindow fixture: NextBatch windows are valid
// only until the producer's next NextBatch call and must not be
// retained, captured, appended whole, or used stale.
package exec

type Tuple []int

type Batch []Tuple

// Op is a toy batch producer; its NextBatch method is exempt from the
// rule (producers hand out windows by contract).
type Op struct {
	buf Batch
}

func (o *Op) NextBatch(ctx int, max int) (Batch, bool, error) {
	return o.buf, true, nil
}

// Operator is the pull interface: a window pulled through it is tracked
// exactly like one pulled from a concrete operator.
type Operator interface {
	NextBatch(ctx int, max int) (Batch, bool, error)
}

type Consumer struct {
	child *Op
	left  Operator
	held  Batch
	rows  []Tuple
}

func (c *Consumer) drainBad(ctx int) error {
	acc := make([]Batch, 0)
	for {
		b, ok, err := c.child.NextBatch(ctx, 256)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		c.held = b               // want "retained in a field"
		acc = append(acc, b)     // want "appended whole"
		go func() { _ = b[0] }() // want "captured by a goroutine"
	}
}

func (c *Consumer) drainGood(ctx int) error {
	var out []Tuple
	for {
		b, ok, err := c.child.NextBatch(ctx, 256)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		// Copying tuple references out re-slices the elements: allowed.
		out = append(out, b...)
	}
	c.rows = out
	return nil
}

func (c *Consumer) stale(ctx int) {
	b1, _, _ := c.child.NextBatch(ctx, 8)
	b2, _, _ := c.child.NextBatch(ctx, 8)
	_ = b2
	_ = b1[0] // want "used after a later NextBatch"
}

// staleIface: the same invalidation through the Operator interface, and a
// window from one producer survives a pull on another.
func (c *Consumer) staleIface(ctx int) {
	l1, _, _ := c.left.NextBatch(ctx, 1)
	r1, _, _ := c.child.NextBatch(ctx, 8)
	_ = l1[0] // a pull on c.child does not invalidate c.left's window
	l2, _, _ := c.left.NextBatch(ctx, 1)
	_ = l2
	_ = r1[0]
	_ = l1[0]   // want "used after a later NextBatch"
	c.held = l2 // want "retained in a field"
}

// rebind is fine: the second call re-binds the same variable, so no
// stale window survives.
func (c *Consumer) rebind(ctx int) {
	b, _, _ := c.child.NextBatch(ctx, 8)
	_ = b
	b, _, _ = c.child.NextBatch(ctx, 8)
	_ = b
}

// keep retains its parameter; passing a live window to it is flagged at
// the call site (interprocedural retention).
func (c *Consumer) keep(b Batch) { c.held = b }

// relay just forwards to keep — retention propagates through the
// summary fixed point.
func (c *Consumer) relay(b Batch) { c.keep(b) }

func (c *Consumer) forward(ctx int) {
	b, _, _ := c.child.NextBatch(ctx, 8)
	c.keep(b)  // want "passed to .*keep.*stores it in a field"
	c.relay(b) // want "passed to .*relay.*stores it in a field"
}
