package exec

import (
	"fmt"

	"repro/internal/schema"
	"repro/internal/types"
)

// DefaultBatchSize is the executor's batch granularity when the query
// context does not override it. 256 tuples keeps a batch comfortably
// inside the L2 cache for the narrow reference tuples of the WSQ corpus
// while amortizing the per-call overhead of the iterator protocol by two
// orders of magnitude.
const DefaultBatchSize = 256

// Batch is a bounded run of tuples moved through the executor in one
// protocol call. A batch is owned by the operator that produced it and is
// valid only until the next NextBatch call on that operator; consumers
// may read it and copy tuple references out of it, but must not mutate
// the slice (producers are free to hand out views of internal storage — a
// Sort emits windows of its materialized run, a ValuesScan windows of its
// row list).
//
// By default the tuples themselves outlive the batch: a consumer may keep
// any tuple for as long as it likes. The scans, the hash and dependent
// joins and Project cut the tuples of a batch from one shared
// []types.Value slab instead of allocating each, as three-index slices
// (cap == len), so an append on a tuple reallocates rather than writing
// into its neighbour. A full slab is replaced, never grown, and nothing
// writes a slab below its length, so a slab-backed tuple is as stable as
// one with storage of its own; what it costs is that a retained tuple
// keeps its whole slab reachable.
//
// A consumer that keeps none of a child's tuples past its next pull from
// that child may say so (see recycler): the child then refills one slab
// at every batch, and its tuples, too, live only until its next
// NextBatch.
//
// An operator's storage is its own, and outlives an execution: a kept
// tree runs query after query (plan reuse runs it for one execution at a
// time), and a dependent join re-opens its inner side once per binding.
// Open resets that storage — its buffers to length zero, its keyTable by
// reset — keeping what earlier executions grew; Close lets go of the
// tuples and strings in it and keeps the storage; nothing is remade per
// execution. What an operator hands out is the exception: a tuple a
// consumer may keep is never written again, so an ungranted slab is
// replaced when full and let go at Close (see rowSlab). A granted slab is
// the other: it is kept with its last batch's values, which the next
// execution overwrites.
type Batch []types.Tuple

// recycler is implemented by the operators that can make use of a
// consumer keeping none of their tuples: the producers that cut tuples
// from a slab, and the operators that pass their input's tuples through.
//
// A consumer that keeps no tuple of a child's batch past its next pull
// from that child grants the child recycling (grantRecycling) before each
// Open of it: Aggregate its input, the hash join its probe side,
// DependentJoin its outer side, Project its input. A granted producer
// refills one slab at each NextBatch until its Close drops the grant, so
// its tuples live until its next NextBatch and no longer. A pass-through
// (Filter, Limit, UnionAll, HashSemiJoin's probe side, the tracing
// decorator) hands a grant on to the children whose tuples it emits, and
// only when it got one. Run, Sort, the hash build side, Distinct and
// ReqSync keep tuples and grant nothing, and neither does NestedLoopJoin,
// for which no gain was measured: a missing grant costs an allocation and
// never a wrong row.
type recycler interface {
	recycle()
}

// grantRecycling grants op recycling, if op can make use of it: its
// consumer keeps none of its tuples past its next pull. The consumer
// calls it just before each op.Open.
func grantRecycling(op Operator) {
	if r, ok := op.(recycler); ok {
		r.recycle()
	}
}

// rowSlab is the storage a producer cuts tuples from: one []types.Value,
// every tuple a three-index slice of it (see Batch). Ungranted, a full
// slab is replaced and nothing writes it below its length again, so its
// tuples live as long as anyone holds them. Granted (see recycler), the
// producer starts every batch at the front of its slab again.
type rowSlab struct {
	vals    []types.Value
	granted bool
}

// next starts a batch: a granted slab's tuples are all dead by now.
func (s *rowSlab) next() {
	if s.granted {
		s.vals = s.vals[:0]
	}
}

// room makes room for n more values, replacing a full slab with a fresh
// one of size values (n at least), and reports whether it did. A granted
// slab's replacement is at least twice as large, so the slab a granted
// producer refills soon holds a whole batch.
func (s *rowSlab) room(n, size int) bool {
	if cap(s.vals)-len(s.vals) >= n {
		return false
	}
	if s.granted {
		size = max(size, 2*cap(s.vals))
	}
	s.vals = make([]types.Value, 0, max(n, size))
	return true
}

// cut takes the next n values, for which room was made, as a tuple.
func (s *rowSlab) cut(n int) types.Tuple {
	mark := len(s.vals)
	s.vals = s.vals[:mark+n]
	return s.vals[mark : mark+n : mark+n]
}

// retract gives back the last n values, a tuple nobody has seen.
func (s *rowSlab) retract(n int) { s.vals = s.vals[:len(s.vals)-n] }

// close ends an execution: the grant goes, and an ungranted slab, whose
// tuples anyone may hold, is let go. A granted one is kept for the next
// execution (see Batch).
func (s *rowSlab) close() {
	if !s.granted {
		s.vals = nil
	}
	s.granted = false
}

// checkMax enforces the protocol's one rule for the batch bound: callers
// pass max >= 1. Operators that buffer go through TakeBatch; operators
// that only forward max to a child leave the check to that child.
func checkMax(max int) error {
	if max < 1 {
		return fmt.Errorf("exec: NextBatch called with max %d; callers pass a size >= 1 (Context.BatchLen for the query's)", max)
	}
	return nil
}

// TakeBatch cuts the next window of at most max tuples off the front of
// an operator's buffered rows — the common tail of every operator that
// materializes before it emits (Sort, Aggregate, the scans over row
// lists, the joins' output buffers, ReqSync's ready queue). An empty
// buffer is end of stream.
func TakeBatch(rows *[]types.Tuple, max int) (Batch, bool, error) {
	if err := checkMax(max); err != nil {
		return nil, false, err
	}
	n := len(*rows)
	if n == 0 {
		return nil, false, nil
	}
	if n > max {
		n = max
	}
	b := Batch((*rows)[:n:n])
	*rows = (*rows)[n:]
	return b, true, nil
}

// BindingBatcher is implemented by dependent-join inner operators that
// can service a whole batch of outer bindings in one round — AEVScan uses
// it to register every external call of an outer batch with the request
// pump before the enclosing ReqSync's first wait, so the pump sees a deep
// request queue immediately instead of one call per binding.
type BindingBatcher interface {
	// BindBatch receives the outer schema's columns and a batch of outer
	// tuples and returns, per tuple, the rows the operator would have
	// produced under an Open/drain/Close cycle with that tuple pushed as a
	// binding frame (expr.Env.PushFrame(cols, outer[i])). Frames alias the
	// outer tuples, so an implementation copies out what it keeps. The
	// rows — the lists, the tuples and the values under them — are valid
	// until the next BindBatch or Close on the operator, which may reuse
	// their storage: a caller copies out what it keeps, as DependentJoin
	// copies each row into a joined row at once. An operator that
	// implements the interface always binds in batches; a decorator is one
	// only when the operator it wraps is (Instrument).
	BindBatch(ctx *Context, cols []schema.Column, outer []types.Tuple) (rows [][]types.Tuple, err error)
}
