package exec

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/expr"
	"repro/internal/schema"
	"repro/internal/types"
)

// HashJoin is the batch executor's equi-join: the right input is drained
// once at Open into a hash table keyed by the right-side key expressions,
// then the left input streams through as the probe side. The paper's
// engine deliberately had "only ... nested-loop join" (Section 5); with
// the relational side no longer the bottleneck-by-construction, the
// planner now picks this operator whenever the join predicate contains
// at least one cross-input equality conjunct.
//
// Output equivalence with NestedLoopJoin is exact, not just bag-equal:
// probing with the left input in stream order and emitting each key's
// build rows in right-scan order reproduces the nested-loop output order
// byte for byte, so Table-1 goldens and ORDER-BY-free result comparisons
// are unaffected by the operator swap.
//
// Key semantics mirror the expression evaluator's `=` (Cmp/EQ): NULL
// keys never match (NULL = x is NULL, not true), int and float compare
// numerically across kinds, and mismatched non-numeric kinds never
// match. The build side lives in a keyTable, whose hash puts Int(1) and
// Float(1.0), and -0 and 0, on one chain; every candidate on the chain is
// then re-verified with Value.Compare, so the hash is a pure bucketing
// hint that cannot produce false matches.
type HashJoin struct{ hashJoin }

// HashSemiJoin emits each left tuple whose key has at least one match in
// the right input — the planner's operator for EXISTS-shaped plans
// (e.g. DISTINCT over a pass-through projection of a join where no right
// column survives), where only existence matters and materializing the
// matches would be wasted work. It is the hash join that keeps one entry
// per distinct build key and stops at the first match, so key and NULL
// semantics are HashJoin's by construction.
type HashSemiJoin struct{ hashJoin }

// hashJoin is the one implementation behind both.
type hashJoin struct {
	binary
	// LeftKeys/RightKeys are the equi-key expressions, pairwise equal
	// length, bound against the respective input schema.
	LeftKeys, RightKeys []expr.Expr
	// Residual is the non-equi remainder of the join predicate (nil when
	// the predicate was entirely equi conjuncts, and always for a semi
	// join), evaluated against the concatenated tuple exactly as
	// NestedLoopJoin evaluates its Pred.
	Residual expr.Expr

	semi bool
	cut  joinCut // the joined rows' columns and slab (not semi)
	// table has one entry per build row, or per distinct key when semi,
	// and rows the build rows by table entry (not semi).
	table keyTable
	rows  []types.Tuple
	keys  []types.Value // scratch: the keys of the tuple being built or probed
	// leftCols and rightCols are the key expressions' in-row columns, by
	// Open (see columns).
	leftCols, rightCols []int
	// buf holds the probed output not yet emitted, a tail of win: the
	// backing array is refilled only once every window cut from it has
	// been replaced by a later NextBatch (see Batch).
	buf, win []types.Tuple
	leftDone bool
	opened   bool

	// Per-instance profile counters for the span trace: build/probe
	// self-time split and build-side cardinality, cumulative over Opens.
	buildNS, probeNS, buildRows int64
}

// NewHashJoin builds an equi-hash-join. leftKeys[i] must pair with
// rightKeys[i]; residual may be nil.
func NewHashJoin(left, right Operator, leftKeys, rightKeys []expr.Expr, residual expr.Expr) *HashJoin {
	checkKeyArity("HashJoin", leftKeys, rightKeys)
	return &HashJoin{hashJoin{binary: binary{left, right}, LeftKeys: leftKeys, RightKeys: rightKeys, Residual: residual}}
}

// NewHashSemiJoin builds a hash semi-join.
func NewHashSemiJoin(left, right Operator, leftKeys, rightKeys []expr.Expr) *HashSemiJoin {
	checkKeyArity("HashSemiJoin", leftKeys, rightKeys)
	return &HashSemiJoin{hashJoin{binary: binary{left, right}, LeftKeys: leftKeys, RightKeys: rightKeys, semi: true}}
}

func checkKeyArity(who string, leftKeys, rightKeys []expr.Expr) {
	if len(leftKeys) == 0 || len(leftKeys) != len(rightKeys) {
		panic(fmt.Sprintf("%s: key arity mismatch (%d left, %d right)", who, len(leftKeys), len(rightKeys)))
	}
}

// Schema implements Operator: a semi join passes the left input through.
func (j *hashJoin) Schema() *schema.Schema {
	if j.semi {
		return j.Left.Schema()
	}
	return j.cut.schema(j.Left.Schema(), j.Right.Schema())
}

// Narrow restricts the join's output to its inputs' columns in need, which
// must name what Residual reads (see joinCut).
func (j *HashJoin) Narrow(need map[schema.AttrID]bool) { j.cut.narrow(need) }

// Open implements Operator: it drains the right input and builds the
// hash table (re-opening rebuilds — correlated bindings may have changed
// what the right side produces).
func (j *hashJoin) Open(ctx *Context) error {
	j.cut.restart()
	if !j.semi {
		grantRecycling(j.Left) // emit copies what a joined row needs of a probe tuple
	}
	if err := j.Left.Open(ctx); err != nil {
		return err
	}
	if err := j.Right.Open(ctx); err != nil {
		// Close is gated on opened, so the half-open left subtree must be
		// released here or it leaks.
		return errors.Join(err, j.Left.Close())
	}
	j.opened = true
	j.buf, j.leftDone = nil, false
	if err := bindAll(j.Name(), j.Left.Schema(), j.LeftKeys...); err != nil {
		return err
	}
	if err := bindAll(j.Name(), j.Right.Schema(), j.RightKeys...); err != nil {
		return err
	}
	if err := bindAll(j.Name(), j.Schema(), j.Residual); err != nil {
		return err
	}
	j.leftCols = columns(j.leftCols, j.LeftKeys...)
	j.rightCols = columns(j.rightCols, j.RightKeys...)
	start := time.Now()
	j.table.reset(len(j.RightKeys), joinEq)
	j.rows = j.rows[:0]
	if len(j.keys) != len(j.RightKeys) {
		j.keys = make([]types.Value, len(j.RightKeys))
	}
	for {
		b, ok, err := j.Right.NextBatch(ctx, ctx.BatchLen())
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		for _, rt := range b {
			null, err := evalKeys(j.Name(), "build", j.RightKeys, j.rightCols, ctx, rt, j.keys)
			if err != nil {
				return err
			}
			if null {
				continue // a NULL key can never equal anything
			}
			if j.semi {
				j.table.intern(j.keys)
			} else {
				j.table.add(j.keys)
				j.rows = append(j.rows, rt)
			}
			j.buildRows++
		}
	}
	j.buildNS += time.Since(start).Nanoseconds()
	return nil
}

// recycle implements recycler. A hash join refills its joined rows' slab
// per batch; a semi join emits its probe tuples themselves, so the grant
// is its probe side's.
func (j *hashJoin) recycle() {
	if j.semi {
		grantRecycling(j.Left)
		return
	}
	j.cut.slab.granted = true
}

// evalKeys reads a join's build- or probe-side keys over t into vals, the
// join's reused scratch: a key that is an in-row column at cols[i] in
// place, any other by Eval. null reports that a key is NULL: the tuple
// cannot equal anything. A placeholder key errors here, whichever way it
// was read.
func evalKeys(who, side string, keys []expr.Expr, cols []int, ctx *Context, t types.Tuple, vals []types.Value) (null bool, err error) {
	for i, k := range keys {
		v, err := read(ctx.Env, k, cols[i], t)
		if err != nil {
			return false, fmt.Errorf("%s %s key %s: %w", who, side, k, err)
		}
		if v.IsPlaceholder() {
			return false, fmt.Errorf("%s %s key %s evaluated over pending placeholder value; plan rewrite must keep this operator above ReqSync", who, side, k)
		}
		if v.IsNull() {
			return true, nil
		}
		vals[i] = v
	}
	return false, nil
}

// fill probes left batches until at least one output tuple is buffered
// or the left input is exhausted.
func (j *hashJoin) fill(ctx *Context, max int) error {
	start := time.Now()
	j.buf = j.win[:0]
	j.cut.slab.next()
	defer func() {
		j.win = j.buf
		j.probeNS += time.Since(start).Nanoseconds()
	}()
	for len(j.buf) == 0 && !j.leftDone {
		lb, ok, err := j.Left.NextBatch(ctx, max)
		if err != nil {
			return err
		}
		if !ok {
			j.leftDone = true
			return nil
		}
		for _, lt := range lb {
			null, err := evalKeys(j.Name(), "probe", j.LeftKeys, j.leftCols, ctx, lt, j.keys)
			if err != nil {
				return err
			}
			if null {
				continue
			}
			i := j.table.find(j.keys)
			if j.semi {
				if i >= 0 {
					j.buf = append(j.buf, lt)
				}
				continue
			}
			for ; i >= 0; i = j.table.findNext(i, j.keys) {
				joined := j.cut.emit(lt, j.rows[i], max)
				if j.Residual != nil {
					ok, err := expr.Holds(j.Residual, ctx.Env, joined)
					if err != nil {
						return fmt.Errorf("Hash Join residual %s: %w", j.Residual, err)
					}
					if !ok {
						j.cut.retract(joined)
						continue
					}
				}
				j.buf = append(j.buf, joined)
			}
		}
	}
	return nil
}

// NextBatch implements Operator.
func (j *hashJoin) NextBatch(ctx *Context, max int) (Batch, bool, error) {
	if !j.opened {
		return nil, false, fmt.Errorf("%s: NextBatch before Open", j.Name())
	}
	if len(j.buf) == 0 {
		if err := j.fill(ctx, max); err != nil {
			return nil, false, err
		}
	}
	return TakeBatch(&j.buf, max)
}

// Close implements Operator. Both subtrees are always closed and neither
// close error masks the other.
func (j *hashJoin) Close() error {
	if !j.opened {
		return nil
	}
	j.opened = false
	j.table.empty()
	clear(j.rows)
	clear(j.keys)
	clear(j.win[:cap(j.win)])
	j.buf = nil
	j.cut.slab.close()
	return errors.Join(j.Left.Close(), j.Right.Close())
}

// SpanExtras implements the trace-profile hook: build-side cardinality
// and the build/probe self-time split, in microseconds.
func (j *hashJoin) SpanExtras() map[string]int64 {
	return map[string]int64{
		"build_rows": j.buildRows,
		"build_us":   j.buildNS / 1e3,
		"probe_us":   j.probeNS / 1e3,
	}
}

// Name implements Operator.
func (j *hashJoin) Name() string {
	if j.semi {
		return "Hash Semi Join"
	}
	return "Hash Join"
}

// Describe implements Operator.
func (j *hashJoin) Describe() string {
	var b strings.Builder
	for i := range j.LeftKeys {
		if i > 0 {
			b.WriteString(" AND ")
		}
		fmt.Fprintf(&b, "%s = %s", j.LeftKeys[i], j.RightKeys[i])
	}
	if j.Residual != nil {
		fmt.Fprintf(&b, " AND %s", j.Residual)
	}
	return b.String()
}

// FullPredicate reconstructs the join predicate as a single expression
// (key equalities ANDed with the residual). The async rewriter uses it
// when a percolating ReqSync clashes with the join: the hash join is
// rewritten as a Select over a cross-product, exactly the paper's
// join→σ(×) transformation, with this expression as the selection.
func (j *HashJoin) FullPredicate() expr.Expr {
	parts := make([]expr.Expr, 0, len(j.LeftKeys)+1)
	for i := range j.LeftKeys {
		parts = append(parts, expr.NewCmp(expr.EQ, j.LeftKeys[i], j.RightKeys[i]))
	}
	parts = append(parts, j.Residual)
	return expr.NewAnd(parts...)
}
