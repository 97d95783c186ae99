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

// TestDecodeTupleIntoSlab: tuples decoded into one slab share its storage
// back to back, each capped at its own length so an append on one cannot
// write the next; the record's bytes are not referenced afterwards; and a
// tuple the slab has no room for gets storage of its own instead of
// growing (and so moving) the slab.
func TestDecodeTupleIntoSlab(t *testing.T) {
	rec := func(t Tuple) []byte {
		raw, err := EncodeTuple(t)
		if err != nil {
			panic(err)
		}
		return raw
	}
	slab := make([]Value, 0, 5)
	raw := rec(Tuple{Int(1), Str("one")})
	a, slab, err := DecodeTupleInto(slab, raw, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range raw {
		raw[i] = 0xff // the page view moves on
	}
	b, slab, err := DecodeTupleInto(slab, rec(Tuple{Int(2), Str("two")}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(slab) != 4 || cap(a) != 2 || cap(b) != 2 || &slab[0] != &a[0] || &slab[2] != &b[0] {
		t.Fatalf("tuples are not capped windows of the slab: len(slab) %d, cap %d and %d", len(slab), cap(a), cap(b))
	}
	_ = append(a, Str("grown"))
	if a.String() != "<1, one>" || b.String() != "<2, two>" {
		t.Errorf("decoded %v and %v", a, b)
	}
	c, after, err := DecodeTupleInto(slab, rec(Tuple{Int(3), Str("three")}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != 4 || &after[0] != &slab[0] || c.String() != "<3, three>" || cap(c) != 2 {
		t.Errorf("a tuple that does not fit must leave the slab alone: len %d, tuple %v cap %d", len(after), c, cap(c))
	}
	// An arity no record of that length could hold is corruption, not a
	// reason to allocate it.
	if _, _, err := DecodeTupleInto(nil, []byte{0xff, 0xff, 0xff, 0xff, 0x0f}, nil); err == nil {
		t.Error("absurd arity should fail")
	}
}

// TestDecodeTupleIntoKeep: with a keep mask the tuple holds the marked
// values only, in order, and takes only that much of the slab; a mask of
// the wrong length means the record is not of the table the caller thinks.
func TestDecodeTupleIntoKeep(t *testing.T) {
	raw, err := EncodeTuple(Tuple{Int(7), Str("skipped"), Null(), Float(2.5), Str("kept")})
	if err != nil {
		t.Fatal(err)
	}
	slab := make([]Value, 0, 3)
	got, slab, err := DecodeTupleInto(slab, raw, []bool{true, false, false, true, true})
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != "<7, 2.5, kept>" || len(slab) != 3 || &slab[0] != &got[0] {
		t.Errorf("decoded %v into %d slab cells", got, len(slab))
	}
	if got, _, err := DecodeTupleInto(nil, raw, make([]bool, 5)); err != nil || len(got) != 0 {
		t.Errorf("nothing kept: %v, %v", got, err)
	}
	if _, _, err := DecodeTupleInto(nil, raw, []bool{true, true}); err == nil {
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

// TestDecodeTupleInCutsFromTheArea: records decoded out of one area keep
// strings that read as stored once the area's bytes are overwritten, the
// area costs one string however many cells are kept, a dropped cell costs
// nothing, and a record that does not lie in its area is refused.
func TestDecodeTupleInCutsFromTheArea(t *testing.T) {
	var area []byte
	var offs, lens []int
	for _, tu := range []Tuple{{Int(1), Str("one"), Str("uno")}, {Int(2), Str("two"), Str("dos")}} {
		raw, err := EncodeTuple(tu)
		if err != nil {
			t.Fatal(err)
		}
		offs, lens = append(offs, len(area)), append(lens, len(raw))
		area = append(area, raw...)
	}
	var a StrArea
	decodeBoth := func(keep []bool) []Tuple {
		a.Reset(area)
		slab := make([]Value, 0, 6)
		var out []Tuple
		for i := range offs {
			tu, rest, err := DecodeTupleIn(slab, &a, offs[i], lens[i], keep)
			if err != nil {
				t.Fatal(err)
			}
			out, slab = append(out, tu), rest
		}
		return out
	}
	got := decodeBoth([]bool{true, false, true})
	for i := range area {
		area[i] = 0xff
	}
	if got[0].String() != "<1, uno>" || got[1].String() != "<2, dos>" {
		t.Errorf("decoded %v %v, want <1, uno> <2, dos>", got[0], got[1])
	}
	copy(area, mustEncode(t, Tuple{Int(1), Str("one"), Str("uno")}))
	copy(area[offs[1]:], mustEncode(t, Tuple{Int(2), Str("two"), Str("dos")}))
	all := testing.AllocsPerRun(10, func() { decodeBoth(nil) })
	none := testing.AllocsPerRun(10, func() { decodeBoth([]bool{true, false, false}) })
	if all != none+1 {
		t.Errorf("two records: %.0f objects keeping four strings, %.0f keeping none; want one more, the area's string", all, none)
	}
	a.Reset(area)
	if _, _, err := DecodeTupleIn(nil, &a, offs[1], lens[1]+1, nil); err == nil {
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
