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
// The tuples themselves outlive the batch: a consumer may keep any tuple
// for as long as it likes. The scans, the hash and dependent joins and
// Project cut the tuples of a batch from one shared []types.Value slab
// instead of allocating each, as three-index slices (cap == len), so an
// append on a tuple reallocates
// rather than writing into its neighbour. A full slab is replaced, never
// grown, and nothing writes a slab below its length, so a slab-backed
// tuple is as stable as one with storage of its own; what it costs is
// that a retained tuple keeps its whole slab reachable.
type Batch []types.Tuple

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
