package types

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// refDecode is the record format read the plain way, binary.Uvarint and
// binary.Varint throughout and every value decoded: the reference the
// plan decoder is held to.
func refDecode(b []byte) (Tuple, error) {
	n, pos := binary.Uvarint(b)
	if pos <= 0 || n > uint64(len(b)) {
		return nil, fmt.Errorf("bad arity")
	}
	var t Tuple
	for i := uint64(0); i < n; i++ {
		if pos >= len(b) {
			return nil, fmt.Errorf("truncated at value %d", i)
		}
		kind := Kind(b[pos])
		pos++
		switch kind {
		case KindNull:
			t = append(t, Null())
		case KindInt:
			v, w := binary.Varint(b[pos:])
			if w <= 0 {
				return nil, fmt.Errorf("bad int at value %d", i)
			}
			pos += w
			t = append(t, Int(v))
		case KindFloat:
			if len(b)-pos < 8 {
				return nil, fmt.Errorf("truncated float at value %d", i)
			}
			t = append(t, Float(math.Float64frombits(binary.LittleEndian.Uint64(b[pos:]))))
			pos += 8
		case KindString:
			l, w := binary.Uvarint(b[pos:])
			if w <= 0 || l > uint64(len(b)-pos-w) {
				return nil, fmt.Errorf("bad string at value %d", i)
			}
			pos += w
			t = append(t, Str(string(b[pos:pos+int(l)])))
			pos += int(l)
		default:
			return nil, fmt.Errorf("unknown kind at value %d", i)
		}
	}
	return t, nil
}

// identical reports whether a and b are the same cell: kind, and payload
// bit for bit.
func identical(a, b Value) bool {
	return a.Kind == b.Kind && a.I == b.I && math.Float64bits(a.F) == math.Float64bits(b.F) && a.S == b.S
}

// FuzzDecodeTuple: for arbitrary bytes, a keep mask and a set of tested
// cells drawn from two words, the plan decoder either returns exactly the
// cells the reference decode returns — the tested ones from Tested, with
// every other cell of the tuple left alone, the rest from Rest — or, when
// the reference refuses the record, refuses it too, in Tested and in
// TestedIn; and DecodeTuple, the plan over every stored value that
// catalog.Table.ScanAll decodes through, returns
// every cell the reference returns or refuses what it refuses. It never
// panics. A record decoded out of an area cuts the same strings as one
// decoded alone.
func FuzzDecodeTuple(f *testing.F) {
	for _, tu := range []Tuple{
		{},
		{Int(0), Int(-1), Int(63), Int(-64), Int(8191), Int(-8192), Int(1 << 20), Int(math.MinInt64), Int(math.MaxInt64)},
		{Str(""), Str("hello world"), Str("unicode: héllo ☃"), Str(string(make([]byte, 200)))},
		{Float(3.5), Float(math.Copysign(0, -1)), Float(math.NaN()), Float(math.Inf(1))},
		{Null(), Int(7), Str("x"), Null(), Float(1)},
	} {
		raw, err := EncodeTuple(tu)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw, uint64(0b10110), uint64(0b01))
		f.Add(raw, ^uint64(0), uint64(0))
		f.Add(raw[:len(raw)/2], ^uint64(0), ^uint64(0))
	}
	f.Add([]byte{1, 99}, uint64(1), uint64(1))                                                                        // unknown kind
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f}, uint64(1), uint64(0))                                                 // absurd arity
	f.Add([]byte{1, byte(KindInt), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, uint64(1), uint64(1)) // int varint overflow
	f.Add([]byte{2, byte(KindString), 9, 'a', byte(KindNull)}, uint64(3), uint64(2))                                  // string past the end
	f.Add([]byte{2, byte(KindInt), 0x80, 0x80, 0x01, byte(KindFloat), 1, 2}, uint64(3), uint64(1))

	f.Fuzz(func(t *testing.T, b []byte, keepBits, testBits uint64) {
		want, refErr := refDecode(b)
		n, _ := binary.Uvarint(b)
		n = min(n, uint64(len(b)))
		keep := make([]bool, n)
		var test []bool
		for i := range keep {
			keep[i] = keepBits>>(i%64)&1 == 1
			if keep[i] {
				test = append(test, testBits>>(len(test)%64)&1 == 1)
			}
		}
		if testBits == 0 {
			test = nil // every kept cell decoded first
		}
		var p DecodePlan
		p.Reset(keep, test)
		sentinel := Placeholder(7, 3)
		fresh := func() Tuple {
			tu := make(Tuple, p.Width())
			for i := range tu {
				tu[i] = sentinel
			}
			return tu
		}
		area := append(append([]byte("pad"), b...), "tail"...)
		var a StrArea
		a.Reset(area)
		got, gotIn := fresh(), fresh()
		errIn := p.TestedIn(gotIn, &a, 3, len(b))
		whole, errWhole := DecodeTuple(b)
		err := p.Tested(got, b)
		if refErr != nil {
			if err == nil || errIn == nil || errWhole == nil {
				t.Fatalf("reference refuses %x (%v); Tested %v, TestedIn %v, DecodeTuple %v", b, refErr, err, errIn, errWhole)
			}
			return
		}
		if err != nil || errIn != nil || errWhole != nil {
			t.Fatalf("%x decodes as %v; Tested %v, TestedIn %v, DecodeTuple %v", b, want, err, errIn, errWhole)
		}
		if len(whole) != len(want) {
			t.Fatalf("%x: DecodeTuple returned %d cells, want %d", b, len(whole), len(want))
		}
		for i := range want {
			if !identical(whole[i], want[i]) {
				t.Fatalf("%x: DecodeTuple cell %d is %v, want %v", b, i, whole[i], want[i])
			}
		}
		var kept Tuple
		for i, k := range keep {
			if k {
				kept = append(kept, want[i])
			}
		}
		check := func(how string, tu Tuple) {
			t.Helper()
			for at := range tu {
				first := test == nil || test[at]
				if first && !identical(tu[at], kept[at]) {
					t.Fatalf("%x %s: tested cell %d is %v, want %v", b, how, at, tu[at], kept[at])
				}
				if !first && !identical(tu[at], sentinel) {
					t.Fatalf("%x %s: untested cell %d written before Rest: %v", b, how, at, tu[at])
				}
			}
			p.Rest(tu)
			for at := range tu {
				if !identical(tu[at], kept[at]) {
					t.Fatalf("%x %s: cell %d is %v after Rest, want %v", b, how, at, tu[at], kept[at])
				}
			}
		}
		check("alone", got) // Tested walked b last
		if err := p.TestedIn(gotIn, &a, 3, len(b)); err != nil {
			t.Fatal(err)
		}
		check("in an area", gotIn)
	})
}
