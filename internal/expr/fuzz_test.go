package expr

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/types"
)

// fuzzValue decodes one fuzzed (kind selector, int payload, string payload)
// triple into a types.Value, covering every kind including NULL.
func fuzzValue(kind byte, i int64, s string) types.Value {
	switch kind % 4 {
	case 0:
		return types.Null()
	case 1:
		return types.Int(i)
	case 2:
		return types.Float(math.Float64frombits(uint64(i)))
	default:
		return types.Str(s)
	}
}

// sameValue is value equality with NaN equal to itself (bit comparison),
// since determinism is about identical outputs, not IEEE comparison rules.
func sameValue(a, b types.Value) bool {
	if a.Kind == types.KindFloat && b.Kind == types.KindFloat {
		return math.Float64bits(a.F) == math.Float64bits(b.F)
	}
	return reflect.DeepEqual(a, b)
}

// fuzzTree builds the tree op selects over the operands l and r.
func fuzzTree(op byte, l, r Expr) Expr {
	switch op % 13 {
	case 0, 1, 2, 3, 4, 5:
		return NewCmp(CmpOp(op%13), l, r)
	case 6, 7, 8, 9:
		return NewArith(ArithOp(op%13-6), l, r)
	case 10:
		return NewAnd(NewCmp(EQ, l, r), NewCmp(NE, l, r))
	case 11:
		return NewOr(NewCmp(LT, l, r), NewCmp(GE, l, r))
	default:
		return NewNot(NewCmp(LE, l, r))
	}
}

// FuzzEval asserts the evaluator's crash-freedom and determinism contract:
// any comparison/arithmetic/logic tree over any pair of values (mixed
// kinds, NULLs, NaNs, division by zero) evaluates without panicking, and
// evaluating twice yields the same outcome. Each tree is also written over
// a bound two-column row in every shape of cmpShapes, column references in
// place of the literals: it must evaluate as the literal tree does, and
// Holds must equal Eval(…).Truthy(), erroring exactly when Eval does.
func FuzzEval(f *testing.F) {
	f.Add(byte(1), int64(7), "x", byte(1), int64(0), "y", byte(0))
	f.Add(byte(2), int64(-1), "", byte(2), int64(1)<<62, "z", byte(3))
	f.Add(byte(3), int64(0), "abc", byte(3), int64(0), "abd", byte(5))
	f.Add(byte(0), int64(0), "", byte(1), int64(42), "", byte(9))
	f.Add(byte(2), int64(0x7ff8000000000001), "nan", byte(2), int64(0), "inf", byte(7))      // NaN vs 0.0
	f.Add(byte(1), int64(math.MinInt64), "", byte(1), int64(-1), "", byte(11))               // overflow-prone division
	f.Add(byte(1), int64(1)<<53+1, "", byte(2), int64(math.Float64bits(1<<53)), "", byte(2)) // 2^53+1 < 2^53.0
	s, a, b := pairSchema()
	f.Fuzz(func(t *testing.T, lk byte, li int64, ls string, rk byte, ri int64, rs string, op byte) {
		x, y := fuzzValue(lk, li, ls), fuzzValue(rk, ri, rs)
		e := fuzzTree(op, NewLiteral(x), NewLiteral(y))
		env := &Env{}
		v1, err1 := e.Eval(env, nil)
		v2, err2 := e.Eval(env, nil)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%s: nondeterministic error: %v vs %v", e, err1, err2)
		}
		if err1 == nil && !sameValue(v1, v2) {
			t.Fatalf("%s: nondeterministic value: %v vs %v", e, v1, v2)
		}
		for _, sh := range cmpShapes(a, b, x, y) {
			e := fuzzTree(op, sh.l, sh.r)
			if err := e.Bind(s); err != nil {
				t.Fatalf("%s: bind: %v", sh.name, err)
			}
			v, err := e.Eval(env, sh.row)
			if (err == nil) != (err1 == nil) || err == nil && !sameValue(v, v1) {
				t.Fatalf("%s (%s): %v, %v; over literals %v, %v", e, sh.name, v, err, v1, err1)
			}
			holds, herr := Holds(e, env, sh.row)
			if (herr == nil) != (err == nil) || herr == nil && holds != v.Truthy() {
				t.Fatalf("%s (%s): Holds %v, %v; Eval %v, %v", e, sh.name, holds, herr, v, err)
			}
		}
	})
}
