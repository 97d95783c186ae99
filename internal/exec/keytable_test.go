package exec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/expr"
	"repro/internal/schema"
	"repro/internal/types"
)

// TestKeyNormalization is DESIGN.md §10's key table as a test: which
// values are one join key (the evaluator's `=`), which are one group
// (Tuple.Key's rendering, cell by cell), and that one hash serves both —
// values equal under either must land on the same chain.
func TestKeyNormalization(t *testing.T) {
	negZero := types.Float(math.Copysign(0, -1))
	nan2 := types.Float(math.Float64frombits(0x7ff8000000000001))
	for _, c := range []struct {
		a, b        types.Value
		join, group bool
	}{
		{types.Int(7), types.Int(7), true, true},
		{negZero, types.Float(0), true, false},
		{negZero, types.Int(0), true, false},
		{types.Float(math.NaN()), nan2, true, true},
		{types.Float(math.NaN()), types.Float(1), false, false},
		{types.Int(1), types.Float(1), true, false},
		{types.Int(1<<53 + 1), types.Float(1 << 53), true, false},
		{types.Int(1<<53 + 1), types.Int(1 << 53), false, false}, // two ints compare as int64s
		{types.Int(1), types.Str("1"), false, false},
		{types.Str("a"), types.Str("a"), true, true},
		{types.Str("a"), types.Str("b"), false, false},
		{types.Null(), types.Null(), true, true}, // joins skip NULL keys before they get here
		{types.Placeholder(3, 1), types.Placeholder(3, 1), true, true},
		{types.Placeholder(3, 1), types.Placeholder(3, 2), false, false},
	} {
		if got := joinEq(c.a, c.b); got != c.join {
			t.Errorf("join: %v = %v is %v, want %v", c.a, c.b, got, c.join)
		}
		if got := c.a.SameKey(c.b); got != c.group {
			t.Errorf("group: %v with %v is %v, want %v", c.a, c.b, got, c.group)
		}
		ha, hb := keyHash([]types.Value{c.a}), keyHash([]types.Value{c.b})
		if (c.join || c.group) && ha != hb {
			t.Errorf("%v and %v are equal keys but hash %x and %x", c.a, c.b, ha, hb)
		}
	}
}

// TestKeyTableChains: entries that hash alike — here by force, real
// collisions are rare — are told apart by the cell-by-cell re-check, equal
// keys are met in insertion order, and intern adds a key once.
func TestKeyTableChains(t *testing.T) {
	var kt keyTable
	kt.reset(2, joinEq)
	key := func(a int64, b string) []types.Value { return []types.Value{types.Int(a), types.Str(b)} }
	for _, k := range [][]types.Value{key(1, "x"), key(2, "x"), key(1, "x"), key(1, "y"), key(1, "x")} {
		kt.addHashed(42, k)
	}
	var met []int
	h := kt.ends[42]
	for i := kt.match(h[0], key(1, "x")); i >= 0; i = kt.findNext(i, key(1, "x")) {
		met = append(met, i)
	}
	if fmt.Sprint(met) != "[0 2 4]" {
		t.Errorf("entries equal to (1,x): %v, want [0 2 4]", met)
	}
	if i := kt.match(h[0], key(3, "x")); i != -1 {
		t.Errorf("absent key matched entry %d", i)
	}

	kt.reset(2, types.Value.SameKey)
	for n, k := range [][]types.Value{key(1, "x"), key(2, "x"), key(1, "x")} {
		i, added := kt.intern(k)
		if want := []int{0, 1, 0}[n]; i != want || added != (n < 2) {
			t.Errorf("intern #%d: entry %d added %v", n, i, added)
		}
	}
	if kt.find(key(2, "x")) != 1 || kt.find(key(2, "y")) != -1 || kt.len() != 2 {
		t.Errorf("find after intern: %d, %d, len %d", kt.find(key(2, "x")), kt.find(key(2, "y")), kt.len())
	}
	if k := kt.key(0); cap(k) != 2 {
		t.Errorf("key(0) has capacity %d: an append would write entry 1's key", cap(k))
	}
}

// TestGroupKeysComparedCellByCell: ("a\x1f3:b", "c") and ("a", "b\x1f3:c")
// render the same Tuple.Key, so keying GROUP BY and DISTINCT on that string
// merged the two groups and dropped one of the rows. The string now only
// orders the output.
func TestGroupKeysComparedCellByCell(t *testing.T) {
	a, b := strCol("T", "A"), strCol("T", "B")
	rows := []types.Tuple{
		{types.Str("a\x1f3:b"), types.Str("c")},
		{types.Str("a"), types.Str("b\x1f3:c")},
		{types.Str("a\x1f3:b"), types.Str("c")},
	}
	if rows[0].Key() != rows[1].Key() {
		t.Fatal("the regression needs two tuples that render one key")
	}
	agg := NewAggregate(NewValuesScan(schema.New(a, b), rows),
		[]expr.Expr{expr.NewColRef(a), expr.NewColRef(b)}, []schema.Column{a, b},
		[]AggSpec{{Func: AggCountStar, OutCol: intCol("", "n")}})
	want := `[<a` + "\x1f" + `3:b, c, 2> <a, b` + "\x1f" + `3:c, 1>]`
	if got := fmt.Sprint(runAll(t, agg)); got != want {
		t.Errorf("GROUP BY: %q, want %q", got, want)
	}
	if got := runAll(t, NewDistinct(NewValuesScan(schema.New(a, b), rows))); len(got) != 2 {
		t.Errorf("DISTINCT: %v, want the two different rows", got)
	}
}

// TestGroupsKeepKindsApart: GROUP BY keeps what Tuple.Key keeps apart —
// Int(1) from Float(1), -0 from 0 — puts every NaN in one group, and still
// emits groups in Tuple.Key order.
func TestGroupsKeepKindsApart(t *testing.T) {
	a := intCol("T", "A")
	var rows []types.Tuple
	for _, v := range []types.Value{
		types.Float(1), types.Int(1), types.Float(0), types.Float(math.Copysign(0, -1)),
		types.Float(math.NaN()), types.Float(math.Float64frombits(0x7ff8000000000001)), types.Int(1),
	} {
		rows = append(rows, types.Tuple{v})
	}
	agg := NewAggregate(NewValuesScan(schema.New(a), rows),
		[]expr.Expr{expr.NewColRef(a)}, []schema.Column{a},
		[]AggSpec{{Func: AggCountStar, OutCol: intCol("", "n")}})
	const want = "[<1, 2> <-0, 1> <0, 1> <1, 1> <NaN, 2>]" // Int(1) keys "1:1", the floats "2:…"
	if got := fmt.Sprint(runAll(t, agg)); got != want {
		t.Errorf("groups: %s, want %s", got, want)
	}
}

// keyModel is what a keyTable answers, the slow way: its entries in
// insertion order, scanned linearly with the table's own eq.
type keyModel struct {
	eq   func(a, b types.Value) bool
	keys [][]types.Value
}

func (m *keyModel) equal(a, b []types.Value) bool {
	for c := range a {
		if !m.eq(a[c], b[c]) {
			return false
		}
	}
	return true
}

// all returns every entry equal to key, in insertion order.
func (m *keyModel) all(key []types.Value) []int {
	var out []int
	for i, k := range m.keys {
		if m.equal(k, key) {
			out = append(out, i)
		}
	}
	return out
}

// TestKeyTableMatchesAModel: seeded random sequences of add, intern,
// find (walked on with findNext) and reset agree with keyModel on every
// answer and on chain order, under both equalities. The keys mix values
// that hash alike but differ under SameKey — Int(1) and Float(1), -0, +0
// and Int(0), two NaNs, ints around ±2^53 and the float they round to,
// the int64 extremes — with empty and non-ASCII strings, strings of eight
// bytes and more, and enough distinct keys to grow the index several
// times; every sequence resets the table halfway and fills it again.
func TestKeyTableMatchesAModel(t *testing.T) {
	const two53 = 1 << 53
	special := []types.Value{
		types.Int(1), types.Float(1), types.Int(0), types.Float(0), types.Float(math.Copysign(0, -1)),
		types.Float(math.NaN()), types.Float(math.Float64frombits(0x7ff8000000000001)),
		types.Int(two53 - 1), types.Int(two53), types.Int(two53 + 1), types.Float(two53),
		types.Int(-two53 - 1), types.Int(-two53), types.Float(-two53),
		types.Int(math.MinInt64), types.Int(math.MaxInt64), types.Float(math.MinInt64), types.Float(math.MaxInt64),
		types.Str(""), types.Str("é"), types.Str("e\u0301"), types.Str("日本語"), types.Str("eight by"), types.Str("nine byte"),
		types.Null(),
	}
	for _, eq := range []struct {
		name string
		fn   func(a, b types.Value) bool
	}{{"join", joinEq}, {"group", types.Value.SameKey}} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", eq.name, seed), func(t *testing.T) {
				r := rand.New(rand.NewSource(seed))
				cell := func() types.Value {
					switch r.Intn(4) {
					case 0:
						return special[r.Intn(len(special))]
					case 1:
						return types.Int(int64(r.Intn(600)))
					case 2:
						return types.Float(float64(r.Intn(600)))
					default:
						return types.Str(fmt.Sprintf("k%d-%s", r.Intn(300), "ü"[:r.Intn(3)]))
					}
				}
				const width, ops = 2, 6000
				kt, m := &keyTable{}, &keyModel{eq: eq.fn}
				kt.reset(width, eq.fn)
				var recent [][]types.Value
				for op := 0; op < ops; op++ {
					key := []types.Value{cell(), cell()}
					if len(recent) > 0 && r.Intn(3) == 0 {
						key = slices.Clone(recent[r.Intn(len(recent))]) // a key already in, or once in
					}
					recent = append(recent, key)
					if op == ops/2 {
						kt.reset(width, eq.fn)
						m.keys = nil
					}
					switch r.Intn(3) {
					case 0:
						if i := kt.add(key); i != len(m.keys) {
							t.Fatalf("op %d: add(%v) = %d, want %d", op, key, i, len(m.keys))
						}
						m.keys = append(m.keys, key)
					case 1:
						i, added := kt.intern(key)
						want, wantAdded := len(m.keys), true
						if all := m.all(key); len(all) > 0 {
							want, wantAdded = all[0], false
						} else {
							m.keys = append(m.keys, key)
						}
						if i != want || added != wantAdded {
							t.Fatalf("op %d: intern(%v) = %d, %v; want %d, %v", op, key, i, added, want, wantAdded)
						}
					default:
						var met []int
						for i := kt.find(key); i >= 0; i = kt.findNext(i, key) {
							met = append(met, i)
						}
						if want := m.all(key); !slices.Equal(met, want) {
							t.Fatalf("op %d: entries equal to %v: %v, want %v", op, key, met, want)
						}
					}
					if kt.len() != len(m.keys) {
						t.Fatalf("op %d: %d entries, want %d", op, kt.len(), len(m.keys))
					}
				}
				for i, k := range m.keys {
					for c, v := range kt.key(i) {
						if !v.SameKey(k[c]) {
							t.Fatalf("entry %d: key %v, want %v", i, kt.key(i), k)
						}
					}
				}
				if len(kt.hashes) < 8*minSlots {
					t.Errorf("the index has %d slots: the sequence did not grow it three times", len(kt.hashes))
				}
			})
		}
	}
}
