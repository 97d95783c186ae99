package types

import (
	"encoding/json"
	"math"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestValueConstructorsAndKinds(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
	}{
		{Null(), KindNull},
		{Int(42), KindInt},
		{Float(3.5), KindFloat},
		{Str("hi"), KindString},
		{Placeholder(7, 2), KindPlaceholder},
		{Bool(true), KindInt},
		{Bool(false), KindInt},
	}
	for _, c := range cases {
		if c.v.Kind != c.kind {
			t.Errorf("%v: kind %v, want %v", c.v, c.v.Kind, c.kind)
		}
	}
	if !Bool(true).Truthy() || Bool(false).Truthy() {
		t.Error("Bool truthiness wrong")
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindNull: "null", KindInt: "int", KindFloat: "float",
		KindString: "string", KindPlaceholder: "placeholder",
	} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestTruthy(t *testing.T) {
	truthy := []Value{Int(1), Int(-1), Float(0.5), Str("x")}
	falsy := []Value{Null(), Int(0), Float(0), Str(""), Placeholder(1, 0)}
	for _, v := range truthy {
		if !v.Truthy() {
			t.Errorf("%v should be truthy", v)
		}
	}
	for _, v := range falsy {
		if v.Truthy() {
			t.Errorf("%v should not be truthy", v)
		}
	}
}

func TestAsIntCoercions(t *testing.T) {
	for _, c := range []struct {
		v    Value
		want int64
	}{
		{Int(7), 7}, {Float(3.9), 3}, {Str("12"), 12}, {Null(), 0},
	} {
		got, err := c.v.AsInt()
		if err != nil {
			t.Fatalf("AsInt(%v): %v", c.v, err)
		}
		if got != c.want {
			t.Errorf("AsInt(%v) = %d, want %d", c.v, got, c.want)
		}
	}
	if _, err := Str("abc").AsInt(); err == nil {
		t.Error("AsInt of non-numeric string should error")
	}
	if _, err := Placeholder(1, 0).AsInt(); err == nil {
		t.Error("AsInt of placeholder should error")
	}
}

func TestAsFloatCoercions(t *testing.T) {
	for _, c := range []struct {
		v    Value
		want float64
	}{
		{Int(7), 7}, {Float(3.5), 3.5}, {Str("2.25"), 2.25}, {Null(), 0},
	} {
		got, err := c.v.AsFloat()
		if err != nil {
			t.Fatalf("AsFloat(%v): %v", c.v, err)
		}
		if got != c.want {
			t.Errorf("AsFloat(%v) = %g, want %g", c.v, got, c.want)
		}
	}
	if _, err := Str("xyz").AsFloat(); err == nil {
		t.Error("AsFloat of non-numeric string should error")
	}
}

func TestAsString(t *testing.T) {
	for _, c := range []struct {
		v    Value
		want string
	}{
		{Int(7), "7"}, {Float(2.5), "2.5"}, {Str("abc"), "abc"}, {Null(), ""},
	} {
		if got := c.v.AsString(); got != c.want {
			t.Errorf("AsString(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestStringRendering(t *testing.T) {
	if Null().String() != "NULL" {
		t.Error("NULL rendering")
	}
	if got := Placeholder(3, 1).String(); got != "<pending 3#1>" {
		t.Errorf("placeholder rendering: %q", got)
	}
}

func TestEqual(t *testing.T) {
	cases := []struct {
		a, b Value
		want bool
	}{
		{Int(1), Int(1), true},
		{Int(1), Int(2), false},
		{Int(2), Float(2), true}, // cross-kind numeric equality
		{Float(2.5), Float(2.5), true},
		{Str("a"), Str("a"), true},
		{Str("a"), Str("b"), false},
		{Null(), Null(), true},
		{Null(), Int(0), false},
		{Placeholder(1, 0), Placeholder(1, 0), true},
		{Placeholder(1, 0), Placeholder(1, 1), false},
		{Placeholder(1, 0), Placeholder(2, 0), false},
		{Str("1"), Int(1), false}, // no string/number coercion in equality
	}
	for _, c := range cases {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("Equal(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := c.b.Equal(c.a); got != c.want {
			t.Errorf("Equal(%v, %v) not symmetric", c.b, c.a)
		}
	}
}

func TestCompareOrdering(t *testing.T) {
	// NULL < numbers, cross-kind numeric comparisons, strings lexicographic,
	// placeholders last.
	ordered := []Value{Null(), Int(-5), Float(-1.5), Int(0), Float(2.5), Int(3)}
	for i := 0; i < len(ordered); i++ {
		for j := 0; j < len(ordered); j++ {
			got := ordered[i].Compare(ordered[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got != want {
				t.Errorf("Compare(%v, %v) = %d, want %d", ordered[i], ordered[j], got, want)
			}
		}
	}
	if Str("apple").Compare(Str("banana")) >= 0 {
		t.Error("string comparison")
	}
	if Placeholder(1, 0).Compare(Int(5)) != 1 {
		t.Error("placeholders sort after values")
	}
	if Int(5).Compare(Placeholder(1, 0)) != -1 {
		t.Error("values sort before placeholders")
	}
	if Placeholder(1, 0).Compare(Placeholder(2, 0)) != -1 {
		t.Error("placeholder ordering by call id")
	}
}

// TestCompareTwoIntsExactly: two ints compare as int64s, so Compare and
// Equal agree on every pair of them. As float64s, 2^53+1 and 2^53 were
// one number: Compare called them equal while Equal did not, so
// `WHERE Id = 9007199254740993` matched 9007199254740992. An int and a
// float still compare as float64s.
func TestCompareTwoIntsExactly(t *testing.T) {
	const big = int64(1) << 53
	ints := []int64{math.MinInt64, -big - 1, -big, -1, 0, 1, big - 1, big, big + 1, big + 2, math.MaxInt64 - 1, math.MaxInt64}
	for i, a := range ints {
		for j, b := range ints {
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got := Int(a).Compare(Int(b)); got != want {
				t.Errorf("Int(%d).Compare(Int(%d)) = %d, want %d", a, b, got, want)
			}
			if eq := Int(a).Equal(Int(b)); eq != (want == 0) {
				t.Errorf("Int(%d).Equal(Int(%d)) = %v, but Compare says %d", a, b, eq, want)
			}
		}
	}
	if Int(big+1).Compare(Float(float64(big))) != 0 || Float(float64(big)).Compare(Int(big+1)) != 0 {
		t.Error("an int and a float compare as float64s: 2^53+1 rounds to 2^53")
	}
}

// TestCompareOrdersNaN: NaN equals NaN and sorts before every number.
// With < and > alone it compared equal to everything, so `NaN = 5` held
// for the evaluator and a nested-loop join while a hash join disagreed.
func TestCompareOrdersNaN(t *testing.T) {
	nan := Float(math.NaN())
	for _, v := range []Value{Int(5), Float(-1e300), Float(math.Inf(-1)), Int(0)} {
		if nan.Compare(v) != -1 || v.Compare(nan) != 1 {
			t.Errorf("NaN vs %v: %d and %d, want -1 and 1", v, nan.Compare(v), v.Compare(nan))
		}
	}
	if nan.Compare(Float(math.Float64frombits(0x7ff8000000000001))) != 0 {
		t.Error("NaN must equal NaN")
	}
	if Float(math.Copysign(0, -1)).Compare(Int(0)) != 0 {
		t.Error("-0 must equal 0")
	}
}

// TestPlaceholderLayout: the call id and field index come back through
// Call and Field, and cost no bytes in any cell — they live in I and in
// the padding beside Kind.
func TestPlaceholderLayout(t *testing.T) {
	p := Placeholder(1<<40+7, 65535)
	if p.Call() != 1<<40+7 || p.Field() != 65535 || !p.IsPlaceholder() {
		t.Errorf("placeholder reads back call %d field %d", p.Call(), p.Field())
	}
	if size := unsafe.Sizeof(Value{}); size > 40 {
		t.Errorf("Value is %d bytes, want <= 40", size)
	}
	defer func() {
		if recover() == nil {
			t.Error("a field index beyond uint16 must panic, not wrap")
		}
	}()
	Placeholder(1, 65536)
}

// TestValueWireForm: internal/shard ships cached rows as JSON by field
// name. The wire form is Kind, I, F, S and nothing else; a peer built
// before the 40-byte Value also sends Call and Field (always zero: a
// placeholder is never cached), which are ignored.
func TestValueWireForm(t *testing.T) {
	row := Tuple{Null(), Int(-7), Float(2.5), Str("x")}
	raw, err := json.Marshal(row)
	if err != nil {
		t.Fatal(err)
	}
	const want = `[{"Kind":0,"I":0,"F":0,"S":""},{"Kind":1,"I":-7,"F":0,"S":""},{"Kind":2,"I":0,"F":2.5,"S":""},{"Kind":3,"I":0,"F":0,"S":"x"}]`
	if string(raw) != want {
		t.Errorf("wire form %s, want %s", raw, want)
	}
	old := `[{"Kind":0,"I":0,"F":0,"S":"","Call":0,"Field":0},{"Kind":1,"I":-7,"F":0,"S":"","Call":0,"Field":0},` +
		`{"Kind":2,"I":0,"F":2.5,"S":"","Call":0,"Field":0},{"Kind":3,"I":0,"F":0,"S":"x","Call":0,"Field":0}]`
	for _, in := range []string{want, old} {
		var got Tuple
		if err := json.Unmarshal([]byte(in), &got); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(row) {
			t.Fatalf("decoded %v", got)
		}
		for i := range row {
			if got[i] != row[i] {
				t.Errorf("cell %d decoded %#v, want %#v", i, got[i], row[i])
			}
		}
	}
}

func TestComparePropertyAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := Int(a), Int(b)
		return va.Compare(vb) == -vb.Compare(va)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestComparePropertyTransitive(t *testing.T) {
	f := func(a, b, c float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(c) {
			return true
		}
		va, vb, vc := Float(a), Float(b), Float(c)
		if va.Compare(vb) <= 0 && vb.Compare(vc) <= 0 {
			return va.Compare(vc) <= 0
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
