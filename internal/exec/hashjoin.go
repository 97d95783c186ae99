package exec

import (
	"errors"
	"fmt"
	"strconv"
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
// match. Bucket keys normalize numerics to a single encoding so Int(1)
// and Float(1.0) land in the same bucket; every bucket candidate is then
// re-verified with Value.Compare, making the string encoding a pure
// bucketing hint that cannot produce false matches.
type HashJoin struct {
	Left, Right Operator
	// LeftKeys/RightKeys are the equi-key expressions, pairwise equal
	// length, bound against the respective input schema.
	LeftKeys, RightKeys []expr.Expr
	// Residual is the non-equi remainder of the join predicate (nil when
	// the predicate was entirely equi conjuncts), evaluated against the
	// concatenated tuple exactly as NestedLoopJoin evaluates its Pred.
	Residual expr.Expr

	out      *schema.Schema
	table    map[string][]buildRow
	buf      []types.Tuple
	leftDone bool
	opened   bool

	// Per-instance profile counters for the span trace: build/probe
	// self-time split and build-side cardinality, cumulative over Opens.
	buildNS, probeNS, buildRows int64
}

// buildRow is one hash-table entry: the right tuple plus its evaluated
// key values for collision verification.
type buildRow struct {
	row  types.Tuple
	keys []types.Value
}

// NewHashJoin builds an equi-hash-join. leftKeys[i] must pair with
// rightKeys[i]; residual may be nil.
func NewHashJoin(left, right Operator, leftKeys, rightKeys []expr.Expr, residual expr.Expr) *HashJoin {
	if len(leftKeys) == 0 || len(leftKeys) != len(rightKeys) {
		panic(fmt.Sprintf("HashJoin: key arity mismatch (%d left, %d right)", len(leftKeys), len(rightKeys)))
	}
	return &HashJoin{Left: left, Right: right, LeftKeys: leftKeys, RightKeys: rightKeys, Residual: residual}
}

// Schema implements Operator.
func (j *HashJoin) Schema() *schema.Schema {
	if j.out == nil {
		j.out = j.Left.Schema().Concat(j.Right.Schema())
	}
	return j.out
}

// Open implements Operator: it drains the right input and builds the
// hash table (re-opening rebuilds — correlated bindings may have changed
// what the right side produces).
func (j *HashJoin) Open(ctx *Context) error {
	j.out = nil // children may have been swapped by a rewrite
	if err := j.Left.Open(ctx); err != nil {
		return err
	}
	if err := j.Right.Open(ctx); err != nil {
		// Close is gated on opened, so the half-open left subtree must be
		// released here or it leaks.
		return errors.Join(err, j.Left.Close())
	}
	j.opened = true
	j.buf = nil
	j.leftDone = false
	if err := bindAll("Hash Join", j.Left.Schema(), j.LeftKeys...); err != nil {
		return err
	}
	if err := bindAll("Hash Join", j.Right.Schema(), j.RightKeys...); err != nil {
		return err
	}
	if err := bindAll("Hash Join", j.Schema(), j.Residual); err != nil {
		return err
	}
	start := time.Now()
	j.table = make(map[string][]buildRow)
	for {
		b, ok, err := j.Right.NextBatch(ctx, ctx.BatchLen())
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		for _, rt := range b {
			keys, null, err := evalKeys("Hash Join build", j.RightKeys, ctx, rt)
			if err != nil {
				return err
			}
			if null {
				continue // a NULL key can never equal anything
			}
			hk := hashKey(keys)
			j.table[hk] = append(j.table[hk], buildRow{row: rt, keys: keys})
			j.buildRows++
		}
	}
	j.buildNS += time.Since(start).Nanoseconds()
	return nil
}

// evalKeys evaluates key expressions against t. null reports that at
// least one key evaluated to NULL (the tuple cannot match anything).
func evalKeys(who string, keys []expr.Expr, ctx *Context, t types.Tuple) ([]types.Value, bool, error) {
	vals := make([]types.Value, len(keys))
	for i, k := range keys {
		v, err := k.Eval(ctx.Env, t)
		if err != nil {
			return nil, false, fmt.Errorf("%s key %s: %w", who, k, err)
		}
		if v.IsPlaceholder() {
			return nil, false, fmt.Errorf("%s key %s evaluated over pending placeholder value; plan rewrite must keep this operator above ReqSync", who, k)
		}
		if v.IsNull() {
			return nil, true, nil
		}
		vals[i] = v
	}
	return vals, false, nil
}

// hashKey encodes key values for bucketing. All numeric kinds share one
// encoding (Compare treats int and float numerically), so cross-kind
// numeric equalities bucket together; candidates are verified with
// Compare afterwards, so encoding collisions are harmless.
func hashKey(vals []types.Value) string {
	var b strings.Builder
	for i, v := range vals {
		if i > 0 {
			b.WriteByte('\x1f')
		}
		switch v.Kind {
		case types.KindInt:
			b.WriteString("n:")
			b.WriteString(strconv.FormatFloat(float64(v.I), 'g', -1, 64))
		case types.KindFloat:
			b.WriteString("n:")
			b.WriteString(strconv.FormatFloat(v.F, 'g', -1, 64))
		case types.KindString:
			b.WriteString("s:")
			b.WriteString(v.S)
		default:
			b.WriteString("x:")
			b.WriteString(v.AsString())
		}
	}
	return b.String()
}

// keysEqual verifies a bucket candidate with the evaluator's comparison
// semantics.
func keysEqual(a, b []types.Value) bool {
	for i := range a {
		if a[i].Compare(b[i]) != 0 {
			return false
		}
	}
	return true
}

// fill probes left batches until at least one joined tuple is buffered
// or the left input is exhausted.
func (j *HashJoin) fill(ctx *Context, max int) error {
	start := time.Now()
	defer func() { j.probeNS += time.Since(start).Nanoseconds() }()
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
			keys, null, err := evalKeys("Hash Join probe", j.LeftKeys, ctx, lt)
			if err != nil {
				return err
			}
			if null {
				continue
			}
			for _, cand := range j.table[hashKey(keys)] {
				if !keysEqual(keys, cand.keys) {
					continue
				}
				joined := lt.Concat(cand.row)
				if j.Residual != nil {
					v, err := j.Residual.Eval(ctx.Env, joined)
					if err != nil {
						return fmt.Errorf("Hash Join residual %s: %w", j.Residual, err)
					}
					if !v.Truthy() {
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
func (j *HashJoin) NextBatch(ctx *Context, max int) (Batch, bool, error) {
	if !j.opened {
		return nil, false, fmt.Errorf("HashJoin: NextBatch before Open")
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
func (j *HashJoin) Close() error {
	if !j.opened {
		return nil
	}
	j.opened = false
	j.table = nil
	j.buf = nil
	return errors.Join(j.Left.Close(), j.Right.Close())
}

// Children implements Operator.
func (j *HashJoin) Children() []Operator { return []Operator{j.Left, j.Right} }

// SetChild implements Operator.
func (j *HashJoin) SetChild(i int, op Operator) {
	switch i {
	case 0:
		j.Left = op
	case 1:
		j.Right = op
	default:
		panic("HashJoin has two children")
	}
	j.out = nil
}

// SpanExtras implements the trace-profile hook: build-side cardinality
// and the build/probe self-time split, in microseconds.
func (j *HashJoin) SpanExtras() map[string]int64 {
	return map[string]int64{
		"build_rows": j.buildRows,
		"build_us":   j.buildNS / 1e3,
		"probe_us":   j.probeNS / 1e3,
	}
}

// Name implements Operator.
func (j *HashJoin) Name() string { return "Hash Join" }

// Describe implements Operator.
func (j *HashJoin) Describe() string {
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

// HashSemiJoin emits each left tuple whose key has at least one match in
// the right input — the planner's operator for EXISTS-shaped plans
// (e.g. DISTINCT over a pass-through projection of a join where no right
// column survives), where only existence matters and materializing the
// matches would be wasted work. Key and NULL semantics match HashJoin.
type HashSemiJoin struct {
	Left, Right         Operator
	LeftKeys, RightKeys []expr.Expr

	table    map[string][][]types.Value
	buf      []types.Tuple
	leftDone bool
	opened   bool

	buildNS, probeNS, buildRows int64
}

// NewHashSemiJoin builds a hash semi-join.
func NewHashSemiJoin(left, right Operator, leftKeys, rightKeys []expr.Expr) *HashSemiJoin {
	if len(leftKeys) == 0 || len(leftKeys) != len(rightKeys) {
		panic(fmt.Sprintf("HashSemiJoin: key arity mismatch (%d left, %d right)", len(leftKeys), len(rightKeys)))
	}
	return &HashSemiJoin{Left: left, Right: right, LeftKeys: leftKeys, RightKeys: rightKeys}
}

// Schema implements Operator: a semi-join passes the left input through.
func (j *HashSemiJoin) Schema() *schema.Schema { return j.Left.Schema() }

// Open implements Operator: it drains the right input into a key set.
func (j *HashSemiJoin) Open(ctx *Context) error {
	if err := j.Left.Open(ctx); err != nil {
		return err
	}
	if err := j.Right.Open(ctx); err != nil {
		// As in HashJoin.Open: release the half-open left subtree.
		return errors.Join(err, j.Left.Close())
	}
	j.opened = true
	j.buf = nil
	j.leftDone = false
	if err := bindAll("Hash Semi Join", j.Left.Schema(), j.LeftKeys...); err != nil {
		return err
	}
	if err := bindAll("Hash Semi Join", j.Right.Schema(), j.RightKeys...); err != nil {
		return err
	}
	start := time.Now()
	j.table = make(map[string][][]types.Value)
	for {
		b, ok, err := j.Right.NextBatch(ctx, ctx.BatchLen())
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		for _, rt := range b {
			keys, null, err := evalKeys("Hash Semi Join build", j.RightKeys, ctx, rt)
			if err != nil {
				return err
			}
			if null {
				continue
			}
			hk := hashKey(keys)
			j.table[hk] = append(j.table[hk], keys)
			j.buildRows++
		}
	}
	j.buildNS += time.Since(start).Nanoseconds()
	return nil
}

func (j *HashSemiJoin) fill(ctx *Context, max int) error {
	start := time.Now()
	defer func() { j.probeNS += time.Since(start).Nanoseconds() }()
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
			keys, null, err := evalKeys("Hash Semi Join probe", j.LeftKeys, ctx, lt)
			if err != nil {
				return err
			}
			if null {
				continue
			}
			for _, cand := range j.table[hashKey(keys)] {
				if keysEqual(keys, cand) {
					j.buf = append(j.buf, lt)
					break
				}
			}
		}
	}
	return nil
}

// NextBatch implements Operator.
func (j *HashSemiJoin) NextBatch(ctx *Context, max int) (Batch, bool, error) {
	if !j.opened {
		return nil, false, fmt.Errorf("HashSemiJoin: NextBatch before Open")
	}
	if len(j.buf) == 0 {
		if err := j.fill(ctx, max); err != nil {
			return nil, false, err
		}
	}
	return TakeBatch(&j.buf, max)
}

// Close implements Operator.
func (j *HashSemiJoin) Close() error {
	if !j.opened {
		return nil
	}
	j.opened = false
	j.table = nil
	j.buf = nil
	return errors.Join(j.Left.Close(), j.Right.Close())
}

// Children implements Operator.
func (j *HashSemiJoin) Children() []Operator { return []Operator{j.Left, j.Right} }

// SetChild implements Operator.
func (j *HashSemiJoin) SetChild(i int, op Operator) {
	switch i {
	case 0:
		j.Left = op
	case 1:
		j.Right = op
	default:
		panic("HashSemiJoin has two children")
	}
}

// SpanExtras implements the trace-profile hook.
func (j *HashSemiJoin) SpanExtras() map[string]int64 {
	return map[string]int64{
		"build_rows": j.buildRows,
		"build_us":   j.buildNS / 1e3,
		"probe_us":   j.probeNS / 1e3,
	}
}

// Name implements Operator.
func (j *HashSemiJoin) Name() string { return "Hash Semi Join" }

// Describe implements Operator.
func (j *HashSemiJoin) Describe() string {
	var b strings.Builder
	for i := range j.LeftKeys {
		if i > 0 {
			b.WriteString(" AND ")
		}
		fmt.Fprintf(&b, "%s = %s", j.LeftKeys[i], j.RightKeys[i])
	}
	return b.String()
}
