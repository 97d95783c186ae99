package exec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/expr"
	"repro/internal/schema"
	"repro/internal/types"
)

// ---------------------------------------------------------------------------
// HashJoin / HashSemiJoin correctness against the nested-loop reference.

// randTable builds n rows of (key, payload) with keys drawn from a small
// domain (forcing duplicates) and a configurable fraction of NULL keys.
func randTable(rng *rand.Rand, n, keyDomain int, nullFrac float64) []types.Tuple {
	rows := make([]types.Tuple, n)
	for i := range rows {
		var k types.Value
		if rng.Float64() < nullFrac {
			k = types.Null()
		} else {
			k = types.Int(int64(rng.Intn(keyDomain)))
		}
		rows[i] = types.Tuple{k, types.Int(int64(i))}
	}
	return rows
}

// mixedKeys is a key domain where the kinds meet: ±0, NaN under two
// payloads, Int(n) against Float(n), ints beyond 2^53 that round to one
// float, strings that look numeric, NULL. Whatever pairs the evaluator's
// `=` calls equal must join, in nested-loop order, and nothing else may.
var mixedKeys = []types.Value{
	types.Null(),
	types.Int(0), types.Float(0), types.Float(math.Copysign(0, -1)),
	types.Int(1), types.Float(1), types.Str("1"), types.Str("1.0"), types.Str(""),
	types.Int(1 << 53), types.Int(1<<53 + 1), types.Float(1 << 53),
	types.Int(math.MaxInt64), types.Float(math.MaxInt64), types.Int(math.MinInt64),
	types.Float(math.NaN()), types.Float(math.Float64frombits(0x7ff8000000000001)), types.Str("NaN"),
	types.Float(math.Inf(1)), types.Float(math.Inf(-1)), types.Float(2.5),
}

// mixedTable builds n rows of (key, payload) with keys drawn from mixedKeys.
func mixedTable(rng *rand.Rand, n int) []types.Tuple {
	rows := make([]types.Tuple, n)
	for i := range rows {
		rows[i] = types.Tuple{mixedKeys[rng.Intn(len(mixedKeys))], types.Int(int64(i))}
	}
	return rows
}

// TestHashJoinMatchesNestedLoopRandomized: for seeded random inputs with
// duplicate and NULL keys, and with keys of mixed kinds, HashJoin at every
// batch size must produce exactly the rows of the equivalent nested-loop
// join — same multiplicity AND same order (probe in left stream order,
// matches in right scan order), so plans stay byte-identical when the
// planner swaps join algorithms.
func TestHashJoinMatchesNestedLoopRandomized(t *testing.T) {
	tables := map[string]func(rng *rand.Rand) []types.Tuple{
		"int":   func(rng *rand.Rand) []types.Tuple { return randTable(rng, 40+rng.Intn(40), 12, 0.1) },
		"mixed": func(rng *rand.Rand) []types.Tuple { return mixedTable(rng, 40+rng.Intn(40)) },
	}
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			for name, table := range tables {
				rng := rand.New(rand.NewSource(seed))
				lk, lp := intCol("L", "K"), intCol("L", "P")
				rk, rp := intCol("R", "K"), intCol("R", "P")
				lsc, rsc := schema.New(lk, lp), schema.New(rk, rp)
				lrows, rrows := table(rng), table(rng)
				eq := expr.NewCmp(expr.EQ, expr.NewColRef(lk), expr.NewColRef(rk))
				lt := expr.NewCmp(expr.LT, expr.NewColRef(lp), expr.NewColRef(rp))
				want := rowStrings(runAll(t, NewNestedLoopJoin(
					NewValuesScan(lsc, lrows), NewValuesScan(rsc, rrows), eq)))
				// With a residual: equi-key plus a non-equi conjunct.
				wantR := rowStrings(runAll(t, NewNestedLoopJoin(
					NewValuesScan(lsc, lrows), NewValuesScan(rsc, rrows), expr.NewAnd(eq, lt))))
				if len(want) == 0 || len(wantR) == 0 {
					t.Fatalf("%s keys: the reference joined nothing", name)
				}
				for _, size := range []int{1, 3, 256} {
					t.Run(fmt.Sprintf("%s/batch-%d", name, size), func(t *testing.T) {
						for _, c := range []struct {
							residual expr.Expr
							want     []string
						}{{nil, want}, {lt, wantR}} {
							ctx := NewContext()
							ctx.BatchSize = size
							got, err := Run(ctx, NewHashJoin(
								NewValuesScan(lsc, lrows), NewValuesScan(rsc, rrows),
								[]expr.Expr{expr.NewColRef(lk)}, []expr.Expr{expr.NewColRef(rk)}, c.residual))
							if err != nil {
								t.Fatal(err)
							}
							if fmt.Sprint(rowStrings(got)) != fmt.Sprint(c.want) {
								t.Fatalf("hash join (residual %v) diverges from nested loop:\nhash: %v\nnlj:  %v", c.residual, got, c.want)
							}
						}
					})
				}
			}
		})
	}
}

// TestHashJoinNegativeZeroKey: -0 = 0 is true for the evaluator, so a -0
// key joins a 0 key of either numeric kind. (The string-encoded bucket key
// rendered them "n:-0" and "n:0" and the candidates never met.)
func TestHashJoinNegativeZeroKey(t *testing.T) {
	lk, rk := intCol("L", "K"), intCol("R", "K")
	lrows := []types.Tuple{{types.Float(math.Copysign(0, -1))}, {types.Float(1)}}
	rrows := []types.Tuple{{types.Int(0)}, {types.Int(1)}}
	lkeys, rkeys := []expr.Expr{expr.NewColRef(lk)}, []expr.Expr{expr.NewColRef(rk)}
	mk := func() (Operator, Operator) {
		return NewValuesScan(schema.New(lk), lrows), NewValuesScan(schema.New(rk), rrows)
	}
	l, r := mk()
	want := rowStrings(runAll(t, NewNestedLoopJoin(l, r, expr.NewCmp(expr.EQ, lkeys[0], rkeys[0]))))
	l, r = mk()
	if got := rowStrings(runAll(t, NewHashJoin(l, r, lkeys, rkeys, nil))); fmt.Sprint(got) != fmt.Sprint(want) || len(got) != 2 {
		t.Errorf("hash join: %v, want %v", got, want)
	}
	l, r = mk()
	if got := runAll(t, NewHashSemiJoin(l, r, lkeys, rkeys)); len(got) != 2 {
		t.Errorf("hash semi join: %v, want both left rows", got)
	}
}

// TestHashJoinNullKeysNeverMatch: SQL equality over NULL is NULL, so NULL
// keys join with nothing — not even other NULLs — on either side.
func TestHashJoinNullKeysNeverMatch(t *testing.T) {
	lk, rk := intCol("L", "K"), intCol("R", "K")
	lrows := []types.Tuple{{types.Null()}, {types.Int(1)}, {types.Null()}}
	rrows := []types.Tuple{{types.Null()}, {types.Int(1)}, {types.Int(2)}}
	j := NewHashJoin(
		NewValuesScan(schema.New(lk), lrows), NewValuesScan(schema.New(rk), rrows),
		[]expr.Expr{expr.NewColRef(lk)}, []expr.Expr{expr.NewColRef(rk)}, nil)
	rows := runAll(t, j)
	if len(rows) != 1 {
		t.Fatalf("rows: %v, want exactly the 1=1 match", rows)
	}
	if v, _ := rows[0][0].AsInt(); v != 1 {
		t.Errorf("row: %v", rows[0])
	}
}

// TestHashJoinDuplicateKeysCrossProduct: m duplicates on the left times n
// on the right must yield m*n joined rows, like the nested loop.
func TestHashJoinDuplicateKeysCrossProduct(t *testing.T) {
	lk, rk := intCol("L", "K"), intCol("R", "K")
	lrows := []types.Tuple{{types.Int(7)}, {types.Int(7)}, {types.Int(7)}}
	rrows := []types.Tuple{{types.Int(7)}, {types.Int(7)}}
	j := NewHashJoin(
		NewValuesScan(schema.New(lk), lrows), NewValuesScan(schema.New(rk), rrows),
		[]expr.Expr{expr.NewColRef(lk)}, []expr.Expr{expr.NewColRef(rk)}, nil)
	if rows := runAll(t, j); len(rows) != 6 {
		t.Fatalf("duplicate-key cross product: %d rows, want 6", len(rows))
	}
}

// TestHashJoinMultiColumnKeys: composite keys match only when every
// component matches; numeric kinds compare as numbers (1 == 1.0).
func TestHashJoinMultiColumnKeys(t *testing.T) {
	la, lb := intCol("L", "A"), strCol("L", "B")
	ra, rb := intCol("R", "A"), strCol("R", "B")
	lrows := []types.Tuple{
		{types.Int(1), types.Str("x")},
		{types.Int(1), types.Str("y")},
		{types.Int(2), types.Str("x")},
	}
	rrows := []types.Tuple{
		{types.Float(1), types.Str("x")},
		{types.Int(2), types.Str("y")},
	}
	j := NewHashJoin(
		NewValuesScan(schema.New(la, lb), lrows), NewValuesScan(schema.New(ra, rb), rrows),
		[]expr.Expr{expr.NewColRef(la), expr.NewColRef(lb)},
		[]expr.Expr{expr.NewColRef(ra), expr.NewColRef(rb)}, nil)
	rows := runAll(t, j)
	if len(rows) != 1 {
		t.Fatalf("rows: %v, want only (1,x)~(1.0,x)", rows)
	}
}

// TestHashSemiJoinMatchesDistinctProbe: the semi join emits each left row
// at most once, in left order, iff a right match exists.
func TestHashSemiJoinMatchesDistinctProbe(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	lk, rk := intCol("L", "K"), intCol("R", "K")
	lrows := randTable(rng, 60, 10, 0.1)
	rrows := randTable(rng, 60, 10, 0.1)
	lsc := schema.New(lk, intCol("L", "P"))
	rsc := schema.New(rk, intCol("R", "P"))
	sj := NewHashSemiJoin(
		NewValuesScan(lsc, lrows), NewValuesScan(rsc, rrows),
		[]expr.Expr{expr.NewColRef(lk)}, []expr.Expr{expr.NewColRef(rk)})
	got := runAll(t, sj)

	// Reference: left rows whose key appears (non-NULL) on the right.
	keys := map[int64]bool{}
	for _, r := range rrows {
		if !r[0].IsNull() {
			k, _ := r[0].AsInt()
			keys[k] = true
		}
	}
	var want []types.Tuple
	for _, l := range lrows {
		if l[0].IsNull() {
			continue
		}
		if k, _ := l[0].AsInt(); keys[k] {
			want = append(want, l)
		}
	}
	if fmt.Sprint(rowStrings(got)) != fmt.Sprint(rowStrings(want)) {
		t.Fatalf("semi join:\ngot:  %v\nwant: %v", got, want)
	}
}

// TestHashJoinPlaceholderKeyErrors: like Cmp.Eval, evaluating a join key
// over a pending placeholder must error — the async rewriter keeps such
// joins above the ReqSync precisely because of this.
func TestHashJoinPlaceholderKeyErrors(t *testing.T) {
	lk, rk := intCol("L", "K"), intCol("R", "K")
	lrows := []types.Tuple{{types.Placeholder(1, 0)}}
	rrows := []types.Tuple{{types.Int(1)}}
	j := NewHashJoin(
		NewValuesScan(schema.New(lk), lrows), NewValuesScan(schema.New(rk), rrows),
		[]expr.Expr{expr.NewColRef(lk)}, []expr.Expr{expr.NewColRef(rk)}, nil)
	if _, err := Run(NewContext(), j); err == nil {
		t.Fatal("placeholder join key must error")
	}
}

// TestHashJoinPlaceholderKeyErrorText: a key read in place, as an in-row
// column is, errors with the text an evaluated key always had, on either
// side, naming the side and the key.
func TestHashJoinPlaceholderKeyErrorText(t *testing.T) {
	lk, rk := intCol("L", "K"), intCol("R", "K")
	ph, one := []types.Tuple{{types.Placeholder(1, 0)}}, []types.Tuple{{types.Int(1)}}
	for _, c := range []struct {
		lrows, rrows []types.Tuple
		want         string
	}{
		{ph, one, "Hash Join probe key L.K evaluated over pending placeholder value; plan rewrite must keep this operator above ReqSync"},
		{one, ph, "Hash Join build key R.K evaluated over pending placeholder value; plan rewrite must keep this operator above ReqSync"},
	} {
		j := NewHashJoin(
			NewValuesScan(schema.New(lk), c.lrows), NewValuesScan(schema.New(rk), c.rrows),
			[]expr.Expr{expr.NewColRef(lk)}, []expr.Expr{expr.NewColRef(rk)}, nil)
		if _, err := Run(NewContext(), j); err == nil || err.Error() != c.want {
			t.Errorf("got %v, want %q", err, c.want)
		}
	}
}

// ---------------------------------------------------------------------------
// The batching win: equi-join via hash vs nested loop.

func equiJoinBench(b *testing.B, mk func(lsc, rsc *schema.Schema, lk, rk schema.Column) Operator) {
	const n = 2000
	lk, rk := intCol("L", "K"), intCol("R", "K")
	lsc, rsc := schema.New(lk, strCol("L", "P")), schema.New(rk, strCol("R", "P"))
	lrows := make([]types.Tuple, n)
	rrows := make([]types.Tuple, n)
	for i := 0; i < n; i++ {
		lrows[i] = types.Tuple{types.Int(int64(i)), types.Str(fmt.Sprintf("l%d", i))}
		rrows[i] = types.Tuple{types.Int(int64(i)), types.Str(fmt.Sprintf("r%d", i))}
	}
	lscan, rscan := NewValuesScan(lsc, lrows), NewValuesScan(rsc, rrows)
	op := mk(lsc, rsc, lk, rk)
	op.SetChild(0, lscan)
	op.SetChild(1, rscan)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := Run(NewContext(), op)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != n {
			b.Fatalf("rows: %d", len(rows))
		}
	}
}

// BenchmarkEquiJoin contrasts the nested-loop and hash implementations of
// the same 2000x2000 equi-join (the planner's before/after for PR 7).
func BenchmarkEquiJoin(b *testing.B) {
	b.Run("nestedloop", func(b *testing.B) {
		equiJoinBench(b, func(lsc, rsc *schema.Schema, lk, rk schema.Column) Operator {
			return NewNestedLoopJoin(nil, nil,
				expr.NewCmp(expr.EQ, expr.NewColRef(lk), expr.NewColRef(rk)))
		})
	})
	b.Run("hash", func(b *testing.B) {
		equiJoinBench(b, func(lsc, rsc *schema.Schema, lk, rk schema.Column) Operator {
			return NewHashJoin(nil, nil,
				[]expr.Expr{expr.NewColRef(lk)}, []expr.Expr{expr.NewColRef(rk)}, nil)
		})
	})
}
