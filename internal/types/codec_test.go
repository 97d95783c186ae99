package types

import (
	"testing"
	"testing/quick"
)

func TestCodecRoundTrip(t *testing.T) {
	cases := []Tuple{
		{},
		{Int(0)},
		{Int(-1), Int(1 << 40)},
		{Float(3.14159), Float(-0.0)},
		{Str(""), Str("hello world"), Str("with'quote")},
		{Null(), Int(7), Null()},
		{Str("unicode: héllo wörld ☃")},
	}
	for _, orig := range cases {
		raw, err := EncodeTuple(orig)
		if err != nil {
			t.Fatalf("encode %v: %v", orig, err)
		}
		got, err := DecodeTuple(raw)
		if err != nil {
			t.Fatalf("decode %v: %v", orig, err)
		}
		if len(got) != len(orig) {
			t.Fatalf("round trip arity: got %d, want %d", len(got), len(orig))
		}
		for i := range orig {
			if !got[i].Equal(orig[i]) || got[i].Kind != orig[i].Kind {
				t.Errorf("round trip %v: got %v at %d", orig, got[i], i)
			}
		}
	}
}

func TestCodecRejectsPlaceholders(t *testing.T) {
	if _, err := EncodeTuple(Tuple{Placeholder(1, 0)}); err == nil {
		t.Fatal("placeholders must not be persistable")
	}
}

func TestDecodeCorrupt(t *testing.T) {
	valid, _ := EncodeTuple(Tuple{Int(5), Str("abcdef"), Float(1.5)})
	// Every strict prefix must fail cleanly, not panic.
	for i := 0; i < len(valid); i++ {
		if _, err := DecodeTuple(valid[:i]); err == nil && i > 0 {
			// Some prefixes may decode as fewer values only if arity were
			// smaller — the arity is fixed up front, so all must fail.
			t.Errorf("truncated decode at %d bytes should fail", i)
		}
	}
	if _, err := DecodeTuple([]byte{1, 99}); err == nil {
		t.Error("unknown kind byte should fail")
	}
}

// TestDecodePlanKeep: with a keep mask the tuple holds the marked values
// only, in order; a mask of the wrong length means the record is not of
// the table the caller thinks.
func TestDecodePlanKeep(t *testing.T) {
	raw := mustEncode(t, Tuple{Int(7), Str("skipped"), Null(), Float(2.5), Str("kept")})
	var p DecodePlan
	p.Reset([]bool{true, false, false, true, true}, nil)
	got := make(Tuple, p.Width())
	if err := p.Tested(got, raw); err != nil {
		t.Fatal(err)
	}
	if got.String() != "<7, 2.5, kept>" {
		t.Errorf("decoded %v", got)
	}
	p.Reset(make([]bool, 5), nil)
	if err := p.Tested(Tuple{}, raw); err != nil || p.Width() != 0 {
		t.Errorf("nothing kept: width %d, %v", p.Width(), err)
	}
	p.Reset([]bool{true, true}, nil)
	if err := p.Tested(make(Tuple, 2), raw); err == nil {
		t.Error("a mask for a two-column table decoded a five-column record")
	}
}

func TestCodecPropertyRoundTrip(t *testing.T) {
	f := func(ints []int64, strs []string, floats []float64) bool {
		var tup Tuple
		for _, v := range ints {
			tup = append(tup, Int(v))
		}
		for _, s := range strs {
			tup = append(tup, Str(s))
		}
		for _, fv := range floats {
			tup = append(tup, Float(fv))
		}
		raw, err := EncodeTuple(tup)
		if err != nil {
			return false
		}
		got, err := DecodeTuple(raw)
		if err != nil || len(got) != len(tup) {
			return false
		}
		for i := range tup {
			if got[i].Kind != tup[i].Kind {
				return false
			}
			switch tup[i].Kind {
			case KindInt:
				if got[i].I != tup[i].I {
					return false
				}
			case KindString:
				if got[i].S != tup[i].S {
					return false
				}
			case KindFloat:
				// NaN round-trips bit-exactly but NaN != NaN; compare bits
				// via string formatting of the struct field.
				if got[i].F != tup[i].F && !(tup[i].F != tup[i].F && got[i].F != got[i].F) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestDecodePlanCutsFromTheArea: records decoded out of one area, their
// first cell by TestedIn and the others by Rest, keep strings that read
// as stored once the area's bytes are overwritten, the area costs one
// string however many cells are kept, a dropped cell costs nothing, and a
// record that does not lie in its area is refused.
func TestDecodePlanCutsFromTheArea(t *testing.T) {
	var area []byte
	var offs, lens []int
	for _, tu := range []Tuple{{Int(1), Str("one"), Str("uno")}, {Int(2), Str("two"), Str("dos")}} {
		raw := mustEncode(t, tu)
		offs, lens = append(offs, len(area)), append(lens, len(raw))
		area = append(area, raw...)
	}
	var a StrArea
	var p DecodePlan
	decodeBoth := func(keep, test []bool) []Tuple {
		a.Reset(area)
		p.Reset(keep, test)
		w := p.Width()
		slab := make([]Value, len(offs)*w)
		out := make([]Tuple, len(offs))
		for i := range offs {
			out[i] = slab[i*w : (i+1)*w : (i+1)*w]
			if err := p.TestedIn(out[i], &a, offs[i], lens[i]); err != nil {
				t.Fatal(err)
			}
			p.Rest(out[i])
		}
		return out
	}
	got := decodeBoth([]bool{true, false, true}, []bool{true, false})
	for i := range area {
		area[i] = 0xff
	}
	if got[0].String() != "<1, uno>" || got[1].String() != "<2, dos>" {
		t.Errorf("decoded %v %v, want <1, uno> <2, dos>", got[0], got[1])
	}
	copy(area, mustEncode(t, Tuple{Int(1), Str("one"), Str("uno")}))
	copy(area[offs[1]:], mustEncode(t, Tuple{Int(2), Str("two"), Str("dos")}))
	all := testing.AllocsPerRun(10, func() { decodeBoth([]bool{true, true, true}, []bool{true, false, false}) })
	none := testing.AllocsPerRun(10, func() { decodeBoth([]bool{true, false, false}, []bool{true}) })
	if all != none+1 {
		t.Errorf("two records: %.0f objects keeping four strings, %.0f keeping none; want one more, the area's string", all, none)
	}
	a.Reset(area)
	if err := p.TestedIn(make(Tuple, p.Width()), &a, offs[1], lens[1]+1); err == nil {
		t.Error("a record running past its area decoded")
	}
}

func mustEncode(t *testing.T, tu Tuple) []byte {
	t.Helper()
	raw, err := EncodeTuple(tu)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}
