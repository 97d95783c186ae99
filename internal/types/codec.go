package types

import (
	"encoding/binary"
	"fmt"
	"math"
)

// EncodeTuple serializes a tuple into a compact byte form for the slotted
// page storage layer. Placeholders are deliberately not encodable: they are
// transient execution-time artifacts of asynchronous iteration and must
// never be persisted.
func EncodeTuple(t Tuple) ([]byte, error) {
	buf := make([]byte, 0, 16*len(t)+2)
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(len(t)))
	buf = append(buf, tmp[:n]...)
	for _, v := range t {
		switch v.Kind {
		case KindNull:
			buf = append(buf, byte(KindNull))
		case KindInt:
			buf = append(buf, byte(KindInt))
			n := binary.PutVarint(tmp[:], v.I)
			buf = append(buf, tmp[:n]...)
		case KindFloat:
			buf = append(buf, byte(KindFloat))
			var fb [8]byte
			binary.LittleEndian.PutUint64(fb[:], math.Float64bits(v.F))
			buf = append(buf, fb[:]...)
		case KindString:
			buf = append(buf, byte(KindString))
			n := binary.PutUvarint(tmp[:], uint64(len(v.S)))
			buf = append(buf, tmp[:n]...)
			buf = append(buf, v.S...)
		case KindPlaceholder:
			return nil, fmt.Errorf("cannot persist placeholder value (call %d)", v.Call())
		default:
			return nil, fmt.Errorf("cannot encode value of kind %s", v.Kind)
		}
	}
	return buf, nil
}

// DecodeTuple deserializes a tuple previously produced by EncodeTuple into
// storage of its own.
func DecodeTuple(b []byte) (Tuple, error) {
	t, _, err := DecodeTupleInto(nil, b, nil)
	return t, err
}

// DecodeTupleInto deserializes a tuple into the spare capacity of slab and
// returns it with the slab grown past it; a tuple that does not fit gets
// storage of its own and slab comes back unchanged. The tuple is a
// three-index slice (cap == len), so an append on it reallocates instead
// of writing into the tuple decoded next. Each string is copied out of b
// on its own: the tuple never references it (DecodeTupleIn cuts them out
// of one string instead). A non-nil keep has one mark per stored value,
// and the tuple holds the marked ones only; the others are stepped over,
// their strings never copied.
func DecodeTupleInto(slab []Value, b []byte, keep []bool) (Tuple, []Value, error) {
	return decodeTuple(slab, b, keep, nil, 0)
}

// StrArea is a byte area that records lie in — a page's record area —
// whose string cells DecodeTupleIn cuts out of one string: the area
// converted once, on the first string cell a decode keeps, so the
// records of one area cost one string however many cells they keep. A
// cut shares that string's storage, and keeps all of it reachable for as
// long as the value lives. The area's bytes must not change while the
// StrArea is set to them.
type StrArea struct {
	b    []byte
	s    string
	made bool
}

// Reset sets a to the area b, dropping the string of the area before.
func (a *StrArea) Reset(b []byte) { a.b, a.s, a.made = b, "", false }

// cut returns the area's bytes [i:j] as a string.
func (a *StrArea) cut(i, j int) string {
	if !a.made {
		a.s, a.made = string(a.b), true
	}
	return a.s[i:j]
}

// DecodeTupleIn is DecodeTupleInto for a record that lies at offset off of
// area: the strings it keeps are cut out of area's one string (see
// StrArea), not copied each on its own.
func DecodeTupleIn(slab []Value, area *StrArea, off, n int, keep []bool) (Tuple, []Value, error) {
	if off < 0 || n < 0 || off+n > len(area.b) {
		return nil, slab, fmt.Errorf("corrupt tuple: record [%d:%d] outside its area of %d bytes", off, off+n, len(area.b))
	}
	return decodeTuple(slab, area.b[off:off+n], keep, area, off)
}

// decodeTuple is the one decoder: strings are copied out of b when area is
// nil, else cut out of area, in which b starts at offset base.
func decodeTuple(slab []Value, b []byte, keep []bool, area *StrArea, base int) (Tuple, []Value, error) {
	n, off := binary.Uvarint(b)
	if off <= 0 || n > uint64(len(b)) { // a value takes at least one byte
		return nil, slab, fmt.Errorf("corrupt tuple: bad arity varint")
	}
	want := n
	if keep != nil {
		if uint64(len(keep)) != n {
			return nil, slab, fmt.Errorf("stored tuple width %d != schema width %d", n, len(keep))
		}
		want = 0
		for _, k := range keep {
			if k {
				want++
			}
		}
	}
	own := uint64(cap(slab)-len(slab)) < want
	t := slab
	if own {
		t = make([]Value, 0, want)
	}
	start := len(t)
	pos := off
	for i := uint64(0); i < n; i++ {
		if pos >= len(b) {
			return nil, slab, fmt.Errorf("corrupt tuple: truncated at value %d", i)
		}
		kind := Kind(b[pos])
		pos++
		var v Value
		switch kind {
		case KindNull:
			v = Null()
		case KindInt:
			iv, w := binary.Varint(b[pos:])
			if w <= 0 {
				return nil, slab, fmt.Errorf("corrupt tuple: bad int varint at value %d", i)
			}
			pos += w
			v = Int(iv)
		case KindFloat:
			if pos+8 > len(b) {
				return nil, slab, fmt.Errorf("corrupt tuple: truncated float at value %d", i)
			}
			v = Float(math.Float64frombits(binary.LittleEndian.Uint64(b[pos : pos+8])))
			pos += 8
		case KindString:
			l, w := binary.Uvarint(b[pos:])
			if w <= 0 {
				return nil, slab, fmt.Errorf("corrupt tuple: bad string length at value %d", i)
			}
			pos += w
			if l > uint64(len(b)-pos) {
				return nil, slab, fmt.Errorf("corrupt tuple: truncated string at value %d", i)
			}
			if keep == nil || keep[i] {
				if area != nil {
					v = Str(area.cut(base+pos, base+pos+int(l)))
				} else {
					v = Str(string(b[pos : pos+int(l)]))
				}
			}
			pos += int(l)
		default:
			return nil, slab, fmt.Errorf("corrupt tuple: unknown kind %d at value %d", kind, i)
		}
		if keep == nil || keep[i] {
			t = append(t, v)
		}
	}
	if own {
		return Tuple(t), slab, nil
	}
	return Tuple(t[start:len(t):len(t)]), t, nil
}
