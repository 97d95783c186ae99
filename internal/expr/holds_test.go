package expr

import (
	"math"
	"testing"

	"repro/internal/schema"
	"repro/internal/types"
)

// pairSchema is the two-column input the Holds tests bind against.
func pairSchema() (*schema.Schema, schema.Column, schema.Column) {
	a := schema.Column{ID: schema.NewAttrID(), Table: "T", Name: "A", Type: schema.TInt}
	b := schema.Column{ID: schema.NewAttrID(), Table: "T", Name: "B", Type: schema.TInt}
	return schema.New(a, b), a, b
}

// shape is one way of writing a comparison of x with y over a row of a
// and b (see cmpShapes).
type shape struct {
	name string
	l, r Expr
	row  types.Tuple
}

// cmpShapes writes x compared with y in every shape Holds decides in
// place: both in-row columns, both columns with the row's cells swapped, a
// column against a literal, and the literal on the left.
func cmpShapes(a, b schema.Column, x, y types.Value) []shape {
	return []shape{
		{"A op B", NewColRef(a), NewColRef(b), types.Tuple{x, y}},
		{"B op A", NewColRef(b), NewColRef(a), types.Tuple{y, x}},
		{"A op lit", NewColRef(a), NewLiteral(y), types.Tuple{x, y}},
		{"lit op B", NewLiteral(x), NewColRef(b), types.Tuple{x, y}},
	}
}

// checkHolds binds e against s and requires Holds and Eval(…).Truthy() to
// agree with each other and with want, or both to fail with one error
// text when wantErr is set.
func checkHolds(t *testing.T, e Expr, s *schema.Schema, env *Env, row types.Tuple, want, wantErr bool) {
	t.Helper()
	if err := e.Bind(s); err != nil {
		t.Fatalf("bind %s: %v", e, err)
	}
	v, evalErr := e.Eval(env, row)
	got, holdsErr := Holds(e, env, row)
	switch {
	case wantErr:
		if evalErr == nil || holdsErr == nil || evalErr.Error() != holdsErr.Error() {
			t.Errorf("%s over %v: want one error from both, got Eval %v, Holds %v", e, row, evalErr, holdsErr)
		}
	case evalErr != nil || holdsErr != nil:
		t.Errorf("%s over %v: unexpected error: Eval %v, Holds %v", e, row, evalErr, holdsErr)
	case got != want || v.Truthy() != want:
		t.Errorf("%s over %v: Holds %v, Eval %v, want %v", e, row, got, v, want)
	}
}

// TestHoldsOverBoundaryCells compares Holds with Eval on the cells where an
// in-place comparison could part from Value.Compare: ints that a float64
// cannot tell apart, the int64 extremes, ints against floats, NaN, NULL,
// empty and non-ASCII strings, mixed kinds and a placeholder, which must
// error with Eval's text rather than read as FALSE. Every case is written
// in each shape of cmpShapes, so an operator not mirrored for a literal on
// the left shows here.
func TestHoldsOverBoundaryCells(t *testing.T) {
	const p53 = int64(1) << 53
	ph := types.Placeholder(9, 0)
	nan := types.Float(math.NaN())
	cases := []struct {
		x       types.Value
		op      CmpOp
		y       types.Value
		want    bool
		wantErr bool
	}{
		{x: types.Int(p53 + 1), op: GT, y: types.Int(p53), want: true},
		{x: types.Int(p53 + 1), op: EQ, y: types.Int(p53)},
		{x: types.Int(p53 - 1), op: LT, y: types.Int(p53 + 1), want: true},
		{x: types.Int(-p53 - 1), op: LT, y: types.Int(-p53), want: true},
		{x: types.Int(-p53 - 1), op: NE, y: types.Int(-p53), want: true},
		{x: types.Int(math.MinInt64), op: LT, y: types.Int(math.MaxInt64), want: true},
		{x: types.Int(math.MinInt64), op: GT, y: types.Int(math.MinInt64 + 1)},
		{x: types.Int(math.MaxInt64), op: GE, y: types.Int(math.MaxInt64), want: true},
		{x: types.Int(math.MaxInt64), op: LE, y: types.Int(math.MaxInt64 - 1)},
		{x: types.Int(3), op: LT, y: types.Float(3.5), want: true},
		// Across kinds numbers compare as float64s, as Value.Compare documents.
		{x: types.Int(p53 + 1), op: EQ, y: types.Float(float64(p53)), want: true},
		{x: nan, op: EQ, y: nan, want: true},
		{x: nan, op: LT, y: types.Int(0), want: true},
		{x: types.Null(), op: EQ, y: types.Null()},
		{x: types.Int(1), op: NE, y: types.Null()},
		{x: types.Null(), op: LT, y: types.Str("a")},
		{x: types.Str(""), op: LT, y: types.Str("a"), want: true},
		{x: types.Str(""), op: EQ, y: types.Str(""), want: true},
		{x: types.Str("é"), op: GT, y: types.Str("z"), want: true},
		{x: types.Str("日本"), op: LT, y: types.Str("日本語"), want: true},
		{x: types.Str("5"), op: EQ, y: types.Int(5)},
		{x: ph, op: EQ, y: types.Int(1), wantErr: true},
		{x: types.Int(7), op: GE, y: ph, wantErr: true},
		{x: types.Str("a"), op: LT, y: ph, wantErr: true},
	}
	s, a, b := pairSchema()
	for _, c := range cases {
		for _, sh := range cmpShapes(a, b, c.x, c.y) {
			checkHolds(t, NewCmp(c.op, sh.l, sh.r), s, &Env{}, sh.row, c.want, c.wantErr)
		}
	}
}

// TestHoldsOverAnOuterReference: a column the input schema lacks is read
// from the environment by Eval, and Holds, which cannot read it in place,
// agrees, errors included.
func TestHoldsOverAnOuterReference(t *testing.T) {
	s, a, _ := pairSchema()
	outer := schema.Column{ID: schema.NewAttrID(), Table: "O", Name: "X", Type: schema.TInt}
	e := NewCmp(LT, NewColRef(a), NewColRef(outer))
	row := types.Tuple{types.Int(3), types.Int(0)}
	checkHolds(t, e, s, &Env{}, row, false, true)
	env := &Env{}
	env.PushFrame([]schema.Column{outer}, types.Tuple{types.Int(5)})
	checkHolds(t, e, s, env, row, true, false)
	checkHolds(t, NewCmp(GT, NewColRef(outer), NewLiteral(types.Int(5))), s, env, row, false, false)
}

// TestCmpRebindReadsTheNewIndex: a Cmp bound to one schema and then to a
// reordered one reads its columns where the latest Bind found them, and
// one re-bound to a schema without its column reads it as an outer
// reference.
func TestCmpRebindReadsTheNewIndex(t *testing.T) {
	s, a, b := pairSchema()
	swapped := schema.New(b, a)
	row := types.Tuple{types.Int(5), types.Int(1)}

	colCol := NewCmp(GT, NewColRef(a), NewColRef(b))
	checkHolds(t, colCol, s, &Env{}, row, true, false)        // A=5 > B=1
	checkHolds(t, colCol, swapped, &Env{}, row, false, false) // A=1 > B=5

	colLit := NewCmp(EQ, NewLiteral(types.Int(5)), NewColRef(a))
	checkHolds(t, colLit, s, &Env{}, row, true, false)
	checkHolds(t, colLit, swapped, &Env{}, row, false, false)
	if i := Column(colLit.R); i != 1 {
		t.Errorf("Column after re-bind: %d, want 1", i)
	}

	env := &Env{}
	env.PushFrame([]schema.Column{a}, types.Tuple{types.Int(5)})
	checkHolds(t, colLit, schema.New(b), env, types.Tuple{types.Int(1)}, true, false)
	if i := Column(colLit.R); i != -1 {
		t.Errorf("Column of an outer reference: %d, want -1", i)
	}
}

// TestColumn: only a bound in-row column reference has an index.
func TestColumn(t *testing.T) {
	s, a, b := pairSchema()
	ref := NewColRef(b)
	if i := Column(ref); i != -1 {
		t.Errorf("unbound: %d, want -1", i)
	}
	if err := ref.Bind(s); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		e    Expr
		want int
	}{
		{ref, 1},
		{NewLiteral(types.Int(1)), -1},
		{NewArith(Add, NewColRef(a), NewLiteral(types.Int(1))), -1},
		{nil, -1},
	} {
		if c.e != nil {
			if err := c.e.Bind(s); err != nil {
				t.Fatal(err)
			}
		}
		if got := Column(c.e); got != c.want {
			t.Errorf("Column(%v) = %d, want %d", c.e, got, c.want)
		}
	}
}

// TestLogicThreeValued checks AND, OR and NOT against Kleene's truth
// tables, where NULL is unknown: NOT NULL is NULL, so Holds(NOT x) is not
// !Holds(x).
func TestLogicThreeValued(t *testing.T) {
	tr, fa, nu := types.Bool(true), types.Bool(false), types.Null()
	and := func(x, y types.Value) Expr { return NewAnd(NewLiteral(x), NewLiteral(y)) }
	or := func(x, y types.Value) Expr { return NewOr(NewLiteral(x), NewLiteral(y)) }
	not := func(x types.Value) Expr { return NewNot(NewLiteral(x)) }
	for _, c := range []struct {
		e    Expr
		want types.Value
	}{
		{and(tr, tr), tr}, {and(tr, fa), fa}, {and(tr, nu), nu},
		{and(fa, tr), fa}, {and(fa, fa), fa}, {and(fa, nu), fa},
		{and(nu, tr), nu}, {and(nu, fa), fa}, {and(nu, nu), nu},
		{or(tr, tr), tr}, {or(tr, fa), tr}, {or(tr, nu), tr},
		{or(fa, tr), tr}, {or(fa, fa), fa}, {or(fa, nu), nu},
		{or(nu, tr), tr}, {or(nu, fa), nu}, {or(nu, nu), nu},
		{not(tr), fa}, {not(fa), tr}, {not(nu), nu},
		{NewNot(not(nu)), nu},
	} {
		v, err := c.e.Eval(&Env{}, nil)
		if err != nil || !v.Equal(c.want) {
			t.Errorf("%s = %v (%v), want %v", c.e, v, err, c.want)
		}
		if got, _ := Holds(c.e, &Env{}, nil); got != c.want.Equal(tr) {
			t.Errorf("Holds(%s) = %v, want %v", c.e, got, !got)
		}
	}
}

// TestHoldsConjunctionStopsAtFalse: AND stops at its first FALSE argument
// and OR at its first TRUE one under Holds as under Eval, but an unknown
// argument decides neither, so what follows it is evaluated (and its error
// reported) by both.
func TestHoldsConjunctionStopsAtFalse(t *testing.T) {
	s, _, _ := pairSchema()
	poison := NewCmp(EQ, NewColRef(schema.Column{ID: schema.NewAttrID(), Name: "missing"}), NewLiteral(types.Int(1)))
	fa, tr, nu := NewLiteral(types.Bool(false)), NewLiteral(types.Bool(true)), NewLiteral(types.Null())
	checkHolds(t, NewAnd(fa, poison), s, &Env{}, nil, false, false)
	checkHolds(t, NewOr(tr, poison), s, &Env{}, nil, true, false)
	checkHolds(t, NewAnd(nu, poison), s, &Env{}, nil, false, true)
	checkHolds(t, NewOr(nu, poison), s, &Env{}, nil, false, true)
}
