// Package expr implements the scalar expression language of the engine's
// SQL subset: column references (by stable AttrID), literals, comparison,
// SQL's three-valued boolean logic, and arithmetic.
//
// Expressions are bound against an operator's input schema at Open time
// (resolving AttrIDs to positional indexes). Column references that are
// not found in the input schema are treated as correlated outer references
// and resolved from the evaluation environment — this is how dependent
// joins (Section 4 of the WSQ/DSQ paper) supply bindings to virtual table
// scans.
//
// The package also decides how an operator reads a bound expression per
// row. A predicate is tested with Holds, which decides a comparison of an
// in-row column with a literal or another in-row column in place when
// both cells are ints or both strings, and evaluates everything else. A
// value is read in place when Column names its in-row index, and
// evaluated otherwise.
package expr

import (
	"cmp"
	"fmt"
	"strings"

	"repro/internal/schema"
	"repro/internal/types"
)

// Env carries the correlated bindings visible during evaluation: one frame
// per enclosing dependent join, innermost last. A frame is the outer
// schema's columns and the current outer tuple, bound by reference — it
// aliases the tuple, copies nothing, and is valid only until the join pops
// it (inside DependentJoin.bindOne or a BindBatch round).
type Env struct {
	outer []frame
}

type frame struct {
	cols []schema.Column
	vals types.Tuple
}

// PushFrame makes an outer tuple's values visible under its schema's
// column ids. Frames nest so that stacked dependent joins each contribute
// their own bindings.
func (e *Env) PushFrame(cols []schema.Column, outer types.Tuple) {
	e.outer = append(e.outer, frame{cols: cols, vals: outer})
}

// PopFrame removes the most recently pushed binding frame.
func (e *Env) PopFrame() {
	if len(e.outer) > 0 {
		e.outer = e.outer[:len(e.outer)-1]
	}
}

// Lookup finds an outer binding for the given attribute, innermost first.
// A frame is a dozen columns at most, so the scan is linear.
func (e *Env) Lookup(id schema.AttrID) (types.Value, bool) {
	for i := len(e.outer) - 1; i >= 0; i-- {
		f := &e.outer[i]
		for j := range f.cols {
			if f.cols[j].ID == id && j < len(f.vals) {
				return f.vals[j], true
			}
		}
	}
	return types.Value{}, false
}

// Expr is a scalar expression node.
type Expr interface {
	// Bind resolves column references against the input schema. References
	// not present in the schema become outer (correlated) references.
	Bind(s *schema.Schema) error
	// Eval computes the expression over one input tuple. It is the
	// reference semantics of every node; operators reach it through Holds
	// for a predicate and, for a value, when Column names no in-row index.
	Eval(env *Env, row types.Tuple) (types.Value, error)
	// CollectAttrs adds every AttrID the expression references to set.
	CollectAttrs(set map[schema.AttrID]bool)
	// Type reports the static result type where known.
	Type() schema.Type
	// String renders the expression in SQL-ish form for EXPLAIN output.
	String() string
}

// ---------------------------------------------------------------------------
// Column reference

// ColRef references a column instance by AttrID.
type ColRef struct {
	ID  schema.AttrID
	Col schema.Column // display metadata, filled during planning
	idx int
	out bool
	bnd bool
}

// NewColRef builds a column reference from resolved column metadata.
func NewColRef(c schema.Column) *ColRef {
	return &ColRef{ID: c.ID, Col: c}
}

// Bind resolves the reference against the input schema.
func (c *ColRef) Bind(s *schema.Schema) error {
	c.bnd = true
	if i := s.IndexOf(c.ID); i >= 0 {
		c.idx, c.out = i, false
		return nil
	}
	// Not in the local schema: treat as a correlated outer reference; it
	// must be supplied by an enclosing dependent join at evaluation time.
	c.out = true
	return nil
}

// Eval returns the referenced value from the row or the outer environment.
func (c *ColRef) Eval(env *Env, row types.Tuple) (types.Value, error) {
	if !c.bnd {
		return types.Value{}, fmt.Errorf("column %s evaluated before bind", c.Col.QualifiedName())
	}
	if c.out {
		if env != nil {
			if v, ok := env.Lookup(c.ID); ok {
				return v, nil
			}
		}
		return types.Value{}, fmt.Errorf("unbound correlated column %s (attr %d)", c.Col.QualifiedName(), c.ID)
	}
	if c.idx >= len(row) {
		return types.Value{}, fmt.Errorf("column %s index %d out of range for tuple of width %d", c.Col.QualifiedName(), c.idx, len(row))
	}
	return row[c.idx], nil
}

// Column returns the index of the input column e reads when e is a column
// reference its latest Bind found in the input schema, and -1 for any
// other expression: an outer reference, an unbound one, a literal or a
// computation. An operator resolves it once per Open, after binding, and
// then reads row[i] in place of Eval.
func Column(e Expr) int {
	if c, ok := e.(*ColRef); ok && c.bnd && !c.out {
		return c.idx
	}
	return -1
}

// CollectAttrs implements Expr.
func (c *ColRef) CollectAttrs(set map[schema.AttrID]bool) { set[c.ID] = true }

// Type implements Expr.
func (c *ColRef) Type() schema.Type { return c.Col.Type }

// String implements Expr.
func (c *ColRef) String() string { return c.Col.QualifiedName() }

// ---------------------------------------------------------------------------
// Literal

// Literal is a constant value.
type Literal struct {
	Val types.Value
}

// NewLiteral wraps a constant value as an expression.
func NewLiteral(v types.Value) *Literal { return &Literal{Val: v} }

// Bind implements Expr (no-op).
func (l *Literal) Bind(*schema.Schema) error { return nil }

// Eval implements Expr.
func (l *Literal) Eval(*Env, types.Tuple) (types.Value, error) { return l.Val, nil }

// CollectAttrs implements Expr (no-op).
func (l *Literal) CollectAttrs(map[schema.AttrID]bool) {}

// Type implements Expr.
func (l *Literal) Type() schema.Type {
	switch l.Val.Kind {
	case types.KindInt:
		return schema.TInt
	case types.KindFloat:
		return schema.TFloat
	default:
		return schema.TString
	}
}

// String implements Expr.
func (l *Literal) String() string {
	if l.Val.Kind == types.KindString {
		return "'" + strings.ReplaceAll(l.Val.S, "'", "''") + "'"
	}
	return l.Val.String()
}

// ---------------------------------------------------------------------------
// Comparison

// CmpOp is a comparison operator.
type CmpOp uint8

// The comparison operators.
const (
	EQ CmpOp = iota
	NE
	LT
	LE
	GT
	GE
)

// String returns the SQL spelling of the operator.
func (o CmpOp) String() string {
	switch o {
	case EQ:
		return "="
	case NE:
		return "<>"
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	default:
		return "?"
	}
}

// mirror returns the operator that compares the same two operands
// swapped: 5 < X is X > 5.
func (o CmpOp) mirror() CmpOp {
	switch o {
	case LT:
		return GT
	case LE:
		return GE
	case GT:
		return LT
	case GE:
		return LE
	default:
		return o
	}
}

// Cmp compares two subexpressions.
type Cmp struct {
	Op   CmpOp
	L, R Expr

	// The shape its latest Bind found (see test): an in-row column at li
	// against the literal lit, or against the in-row column at ri, compared
	// by op — Op, mirrored when the literal is on the left.
	shape cmpShape
	op    CmpOp
	li    int
	ri    int
	lit   types.Value
}

// cmpShape is what a Cmp's Bind found its operands to be.
type cmpShape uint8

const (
	cmpOther  cmpShape = iota // anything else: test always evaluates
	cmpColLit                 // an in-row column and a literal
	cmpColCol                 // two in-row columns
)

// NewCmp builds a comparison node.
func NewCmp(op CmpOp, l, r Expr) *Cmp { return &Cmp{Op: op, L: l, R: r} }

// Bind implements Expr. It records the comparison's shape anew at every
// Bind, so a re-bound Cmp reads the indexes its operands now have.
func (c *Cmp) Bind(s *schema.Schema) error {
	c.shape = cmpOther
	if err := c.L.Bind(s); err != nil {
		return err
	}
	if err := c.R.Bind(s); err != nil {
		return err
	}
	c.li, c.ri, c.op = Column(c.L), Column(c.R), c.Op
	llit, lok := c.L.(*Literal)
	rlit, rok := c.R.(*Literal)
	switch {
	case c.li >= 0 && c.ri >= 0:
		c.shape = cmpColCol
	case c.li >= 0 && rok:
		c.shape, c.lit = cmpColLit, rlit.Val
	case c.ri >= 0 && lok:
		c.shape, c.li, c.lit, c.op = cmpColLit, c.ri, llit.Val, c.Op.mirror()
	}
	return nil
}

// test decides c over row in place: when its latest Bind found an in-row
// column against a literal or another in-row column, and both cells are
// ints or both strings, it compares them as int64s or strings, which is
// what Value.Compare does for those kinds. ok is false in every other
// case — NULL, a placeholder, a float, mixed kinds, a row too short, an
// unknown operator — and the caller evaluates.
func (c *Cmp) test(row types.Tuple) (holds, ok bool) {
	var a, b *types.Value
	switch c.shape {
	case cmpColLit:
		if c.li >= len(row) {
			return false, false
		}
		a, b = &row[c.li], &c.lit
	case cmpColCol:
		if c.li >= len(row) || c.ri >= len(row) {
			return false, false
		}
		a, b = &row[c.li], &row[c.ri]
	default:
		return false, false
	}
	switch {
	case a.Kind != b.Kind:
		return false, false
	case a.Kind == types.KindInt:
		return compareAs(c.op, a.I, b.I)
	case a.Kind == types.KindString:
		return compareAs(c.op, a.S, b.S)
	default:
		return false, false
	}
}

// compareAs applies op to two cells of one ordered Go type.
func compareAs[T cmp.Ordered](op CmpOp, x, y T) (holds, ok bool) {
	switch op {
	case EQ:
		return x == y, true
	case NE:
		return x != y, true
	case LT:
		return x < y, true
	case LE:
		return x <= y, true
	case GT:
		return x > y, true
	case GE:
		return x >= y, true
	default:
		return false, false
	}
}

// Eval implements Expr. Comparisons involving NULL yield NULL (not truthy).
func (c *Cmp) Eval(env *Env, row types.Tuple) (types.Value, error) {
	lv, err := c.L.Eval(env, row)
	if err != nil {
		return types.Value{}, err
	}
	rv, err := c.R.Eval(env, row)
	if err != nil {
		return types.Value{}, err
	}
	if lv.IsNull() || rv.IsNull() {
		return types.Null(), nil
	}
	if lv.IsPlaceholder() || rv.IsPlaceholder() {
		return types.Value{}, fmt.Errorf("comparison %s evaluated over pending placeholder value; plan rewrite must keep this operator above ReqSync", c)
	}
	cmp := lv.Compare(rv)
	switch c.Op {
	case EQ:
		return types.Bool(cmp == 0), nil
	case NE:
		return types.Bool(cmp != 0), nil
	case LT:
		return types.Bool(cmp < 0), nil
	case LE:
		return types.Bool(cmp <= 0), nil
	case GT:
		return types.Bool(cmp > 0), nil
	case GE:
		return types.Bool(cmp >= 0), nil
	default:
		return types.Value{}, fmt.Errorf("unknown comparison op %d", c.Op)
	}
}

// CollectAttrs implements Expr.
func (c *Cmp) CollectAttrs(set map[schema.AttrID]bool) {
	c.L.CollectAttrs(set)
	c.R.CollectAttrs(set)
}

// Type implements Expr.
func (c *Cmp) Type() schema.Type { return schema.TInt }

// String implements Expr.
func (c *Cmp) String() string {
	return fmt.Sprintf("%s %s %s", c.L, c.Op, c.R)
}

// ---------------------------------------------------------------------------
// Boolean logic

// LogicOp is a boolean connective.
type LogicOp uint8

// The boolean connectives.
const (
	And LogicOp = iota
	Or
	Not
)

// Logic combines boolean subexpressions under SQL's three-valued (Kleene)
// logic: an argument is NULL when it evaluates to NULL, else TRUE or FALSE
// by Value.Truthy. AND is FALSE if any argument is FALSE, else NULL if any
// is NULL, else TRUE; OR is its dual; NOT NULL is NULL. So NOT (V > 2)
// keeps no row whose V is NULL.
type Logic struct {
	Op   LogicOp
	Args []Expr // one arg for Not, two or more for And/Or
}

// NewAnd conjoins expressions; it returns nil for no args and the sole arg
// for one, flattening nested conjunctions.
func NewAnd(args ...Expr) Expr {
	flat := make([]Expr, 0, len(args))
	for _, a := range args {
		if a == nil {
			continue
		}
		if l, ok := a.(*Logic); ok && l.Op == And {
			flat = append(flat, l.Args...)
			continue
		}
		flat = append(flat, a)
	}
	switch len(flat) {
	case 0:
		return nil
	case 1:
		return flat[0]
	default:
		return &Logic{Op: And, Args: flat}
	}
}

// NewOr disjoins expressions.
func NewOr(args ...Expr) Expr {
	if len(args) == 1 {
		return args[0]
	}
	return &Logic{Op: Or, Args: args}
}

// NewNot negates an expression.
func NewNot(a Expr) Expr { return &Logic{Op: Not, Args: []Expr{a}} }

// Bind implements Expr.
func (l *Logic) Bind(s *schema.Schema) error {
	for _, a := range l.Args {
		if err := a.Bind(s); err != nil {
			return err
		}
	}
	return nil
}

// Eval implements Expr: TRUE and FALSE as Bool, unknown as NULL. AND
// stops at its first FALSE argument and OR at its first TRUE one, never
// evaluating the rest.
func (l *Logic) Eval(env *Env, row types.Tuple) (types.Value, error) {
	t, err := l.truth(env, row)
	switch {
	case err != nil:
		return types.Value{}, err
	case t == unknown:
		return types.Null(), nil
	default:
		return types.Bool(t == isTrue), nil
	}
}

// truth is the connective's three-valued result, its arguments read by
// truthOf.
func (l *Logic) truth(env *Env, row types.Tuple) (truth, error) {
	switch l.Op {
	case Not:
		t, err := truthOf(l.Args[0], env, row)
		if err != nil || t == unknown {
			return t, err
		}
		return isTrue - t, nil
	case And, Or:
		// decided is the value that settles the connective on its own;
		// all arguments known and none of them decided gives the other.
		decided := isFalse
		if l.Op == Or {
			decided = isTrue
		}
		out := isTrue - decided
		for _, a := range l.Args {
			t, err := truthOf(a, env, row)
			if err != nil {
				return isFalse, err
			}
			if t == decided {
				return t, nil
			}
			if t == unknown {
				out = unknown
			}
		}
		return out, nil
	default:
		return isFalse, fmt.Errorf("unknown logic op %d", l.Op)
	}
}

// CollectAttrs implements Expr.
func (l *Logic) CollectAttrs(set map[schema.AttrID]bool) {
	for _, a := range l.Args {
		a.CollectAttrs(set)
	}
}

// Type implements Expr.
func (l *Logic) Type() schema.Type { return schema.TInt }

// String implements Expr.
func (l *Logic) String() string {
	switch l.Op {
	case Not:
		return "NOT (" + l.Args[0].String() + ")"
	case And:
		parts := make([]string, len(l.Args))
		for i, a := range l.Args {
			parts[i] = a.String()
		}
		return strings.Join(parts, " AND ")
	default:
		parts := make([]string, len(l.Args))
		for i, a := range l.Args {
			parts[i] = "(" + a.String() + ")"
		}
		return strings.Join(parts, " OR ")
	}
}

// ---------------------------------------------------------------------------
// IS [NOT] NULL

// IsNull tests whether a subexpression evaluates to NULL (or, with Not
// set, to a non-NULL value). Unlike Cmp against a NULL literal it yields
// a definite boolean, so it is the only way a predicate can select
// NULL-bearing rows.
type IsNull struct {
	Not bool
	E   Expr
}

// NewIsNull builds an IS [NOT] NULL node.
func NewIsNull(e Expr, not bool) *IsNull { return &IsNull{Not: not, E: e} }

// Bind implements Expr.
func (n *IsNull) Bind(s *schema.Schema) error { return n.E.Bind(s) }

// Eval implements Expr. A placeholder is an error, not NULL: whether the
// pending value settles to NULL is unknowable here, so evaluating below
// ReqSync would silently flip the predicate. The asynchronous rewrite's
// clash rules must keep any filter containing IsNull above ReqSync.
func (n *IsNull) Eval(env *Env, row types.Tuple) (types.Value, error) {
	v, err := n.E.Eval(env, row)
	if err != nil {
		return types.Value{}, err
	}
	if v.IsPlaceholder() {
		return types.Value{}, fmt.Errorf("%s evaluated over pending placeholder value; plan rewrite must keep this operator above ReqSync", n)
	}
	return types.Bool(v.IsNull() != n.Not), nil
}

// CollectAttrs implements Expr.
func (n *IsNull) CollectAttrs(set map[schema.AttrID]bool) { n.E.CollectAttrs(set) }

// Type implements Expr.
func (n *IsNull) Type() schema.Type { return schema.TInt }

// String implements Expr.
func (n *IsNull) String() string {
	if n.Not {
		return fmt.Sprintf("(%s IS NOT NULL)", n.E)
	}
	return fmt.Sprintf("(%s IS NULL)", n.E)
}

// ---------------------------------------------------------------------------
// Arithmetic

// ArithOp is an arithmetic operator.
type ArithOp uint8

// The arithmetic operators.
const (
	Add ArithOp = iota
	Sub
	Mul
	Div
)

// String returns the SQL spelling of the operator.
func (o ArithOp) String() string {
	switch o {
	case Add:
		return "+"
	case Sub:
		return "-"
	case Mul:
		return "*"
	case Div:
		return "/"
	default:
		return "?"
	}
}

// Arith applies an arithmetic operator to two subexpressions.
type Arith struct {
	Op   ArithOp
	L, R Expr
}

// NewArith builds an arithmetic node.
func NewArith(op ArithOp, l, r Expr) *Arith { return &Arith{Op: op, L: l, R: r} }

// Bind implements Expr.
func (a *Arith) Bind(s *schema.Schema) error {
	if err := a.L.Bind(s); err != nil {
		return err
	}
	return a.R.Bind(s)
}

// Eval implements Expr. Integer operands stay integral except for division,
// which is performed in floating point (Query 2 of the paper divides a web
// count by a population and relies on fractional precision).
func (a *Arith) Eval(env *Env, row types.Tuple) (types.Value, error) {
	lv, err := a.L.Eval(env, row)
	if err != nil {
		return types.Value{}, err
	}
	rv, err := a.R.Eval(env, row)
	if err != nil {
		return types.Value{}, err
	}
	if lv.IsNull() || rv.IsNull() {
		return types.Null(), nil
	}
	if lv.IsPlaceholder() || rv.IsPlaceholder() {
		return types.Value{}, fmt.Errorf("arithmetic %s evaluated over pending placeholder value", a)
	}
	if lv.Kind == types.KindInt && rv.Kind == types.KindInt && a.Op != Div {
		switch a.Op {
		case Add:
			return types.Int(lv.I + rv.I), nil
		case Sub:
			return types.Int(lv.I - rv.I), nil
		case Mul:
			return types.Int(lv.I * rv.I), nil
		}
	}
	lf, err := lv.AsFloat()
	if err != nil {
		return types.Value{}, err
	}
	rf, err := rv.AsFloat()
	if err != nil {
		return types.Value{}, err
	}
	switch a.Op {
	case Add:
		return types.Float(lf + rf), nil
	case Sub:
		return types.Float(lf - rf), nil
	case Mul:
		return types.Float(lf * rf), nil
	case Div:
		if rf == 0 {
			return types.Null(), nil
		}
		return types.Float(lf / rf), nil
	default:
		return types.Value{}, fmt.Errorf("unknown arithmetic op %d", a.Op)
	}
}

// CollectAttrs implements Expr.
func (a *Arith) CollectAttrs(set map[schema.AttrID]bool) {
	a.L.CollectAttrs(set)
	a.R.CollectAttrs(set)
}

// Type implements Expr.
func (a *Arith) Type() schema.Type {
	if a.Op == Div {
		return schema.TFloat
	}
	if a.L.Type() == schema.TInt && a.R.Type() == schema.TInt {
		return schema.TInt
	}
	return schema.TFloat
}

// String implements Expr.
func (a *Arith) String() string {
	return fmt.Sprintf("(%s %s %s)", a.L, a.Op, a.R)
}

// ---------------------------------------------------------------------------
// Predicates

// truth is a predicate's three-valued result.
type truth uint8

const (
	isFalse truth = 0
	unknown truth = 1
	isTrue  truth = 2
)

// Holds reports whether predicate e is TRUE over row; a row it is FALSE or
// unknown (NULL) for fails it. It is the one way an operator asks whether
// a predicate holds. A comparison of an in-row column with a literal or
// another in-row column whose cells are both ints or both strings is
// decided in place, AND, OR and NOT combine their arguments' results
// under three-valued logic (so Holds(NOT x) is not !Holds(x)), and every
// other case goes through Eval and Value.Truthy: NULL, a placeholder,
// which errors as Eval does, a float, mixed kinds, an outer reference and
// any other node. So Holds(e) is Eval(e).Truthy(), and errors exactly when
// Eval does.
func Holds(e Expr, env *Env, row types.Tuple) (bool, error) {
	t, err := truthOf(e, env, row)
	return t == isTrue, err
}

// truthOf is e's three-valued result over row (see Holds).
func truthOf(e Expr, env *Env, row types.Tuple) (truth, error) {
	switch n := e.(type) {
	case *Cmp:
		if holds, ok := n.test(row); ok {
			if holds {
				return isTrue, nil
			}
			return isFalse, nil
		}
	case *Logic:
		return n.truth(env, row)
	}
	v, err := e.Eval(env, row)
	switch {
	case err != nil:
		return isFalse, err
	case v.IsNull():
		return unknown, nil
	case v.Truthy():
		return isTrue, nil
	default:
		return isFalse, nil
	}
}

// ---------------------------------------------------------------------------
// Helpers

// Attrs returns the set of attributes referenced by e (nil-safe).
func Attrs(e Expr) map[schema.AttrID]bool {
	set := make(map[schema.AttrID]bool)
	if e != nil {
		e.CollectAttrs(set)
	}
	return set
}

// References reports whether e references any attribute in the given set.
func References(e Expr, set map[schema.AttrID]bool) bool {
	if e == nil {
		return false
	}
	for id := range Attrs(e) {
		if set[id] {
			return true
		}
	}
	return false
}

// SplitConjuncts decomposes a conjunction into its component predicates.
func SplitConjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if l, ok := e.(*Logic); ok && l.Op == And {
		var out []Expr
		for _, a := range l.Args {
			out = append(out, SplitConjuncts(a)...)
		}
		return out
	}
	return []Expr{e}
}
