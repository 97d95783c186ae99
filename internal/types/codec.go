package types

import (
	"encoding/binary"
	"errors"
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
	return decodeWhole(slab, b, keep, nil, 0)
}

// StrArea is a byte area that records lie in — a page's record area —
// whose string cells DecodeTupleIn and DecodePlan cut out of one string:
// the area converted once, on the first string cell a decode keeps, so
// the records of one area cost one string however many cells they keep.
// A cut shares that string's storage, and keeps all of it reachable for
// as long as the value lives. The area's bytes must not change while the
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

// record returns the n bytes at offset off of the area.
func (a *StrArea) record(off, n int) ([]byte, error) {
	if off < 0 || n < 0 || off+n > len(a.b) {
		return nil, fmt.Errorf("corrupt tuple: record [%d:%d] outside its area of %d bytes", off, off+n, len(a.b))
	}
	return a.b[off : off+n], nil
}

// DecodeTupleIn is DecodeTupleInto for a record that lies at offset off of
// area: the strings it keeps are cut out of area's one string (see
// StrArea), not copied each on its own.
func DecodeTupleIn(slab []Value, area *StrArea, off, n int, keep []bool) (Tuple, []Value, error) {
	b, err := area.record(off, n)
	if err != nil {
		return nil, slab, err
	}
	return decodeWhole(slab, b, keep, area, off)
}

// decodeWhole sizes the tuple a record decodes to, takes it from slab's
// spare capacity or storage of its own, and decodes every kept cell into
// it in one walk.
func decodeWhole(slab []Value, b []byte, keep []bool, area *StrArea, base int) (Tuple, []Value, error) {
	n, off := binary.Uvarint(b)
	if off <= 0 || n > uint64(len(b)) {
		return nil, slab, errArity
	}
	if keep != nil && uint64(len(keep)) != n {
		return nil, slab, errWidth(n, len(keep))
	}
	var buf [16]cellOp // a record of up to 16 values needs no ops of its own
	ops, width := buf[:0], 0
	for i := range int(n) {
		op := skipCell
		if keep == nil || keep[i] {
			op = decodeNow
			width++
		}
		ops = append(ops, op)
	}
	own := cap(slab)-len(slab) < width
	t := slab
	if own {
		t = make([]Value, 0, width)
	}
	mark := len(t)
	t = t[:mark+width]
	tu := Tuple(t[mark : mark+width : mark+width])
	r := record{b: b, area: area, base: base, ops: ops}
	if err := r.walk(tu, nil); err != nil {
		return nil, slab, err
	}
	if own {
		return tu, slab, nil
	}
	return tu, t, nil
}

// DecodePlan decodes the records of one stored table in two halves: the
// cells a predicate tests, then — only for a record that passes — the
// other cells it keeps. Tested walks the whole record, checks every cell
// (so a corrupt record is refused whether or not it passes) and decodes
// the tested cells, recording where the others start; Rest decodes those
// from the recorded offsets. A record that fails the test never has its
// other cells decoded, and never has their strings cut.
//
// A plan is set once per scan (Reset), not per record: the kept width is
// counted then. It is not safe for concurrent use.
type DecodePlan struct {
	r     record      // the record Tested walked last
	later []laterCell // where its cells left for Rest start
	width int         // the cells a tuple holds
}

// record is one stored record being decoded: its bytes, where its strings
// are cut from, and what to do with each of its values.
type record struct {
	b    []byte
	area *StrArea // nil: strings are copied out of b
	base int      // b's offset in area
	ops  []cellOp // one per stored value
}

// cellOp is what a walk does with one stored value besides checking it.
type cellOp uint8

const (
	skipCell    cellOp = iota // nothing: the tuple does not hold it
	decodeNow                 // decode it into the tuple
	decodeLater               // note where it is, for Rest
)

// laterCell is a kept cell Rest decodes: its position in the tuple and
// the offset of its kind byte in the record.
type laterCell struct{ at, off int32 }

// Reset sets p to decode records of len(keep) values, of which keep marks
// the ones a tuple holds, keeping p's storage. test has one mark per kept
// cell, in tuple order, and marks the ones Tested decodes; a nil test
// marks them all, so that Rest has nothing to do.
func (p *DecodePlan) Reset(keep, test []bool) {
	ops := p.r.ops[:0]
	p.width = 0
	for _, k := range keep {
		op := skipCell
		if k {
			op = decodeNow
			if test != nil && (p.width >= len(test) || !test[p.width]) {
				op = decodeLater
			}
			p.width++
		}
		ops = append(ops, op)
	}
	if test != nil && len(test) != p.width {
		panic(fmt.Sprintf("types: decode plan tests %d cells of %d", len(test), p.width))
	}
	p.r, p.later = record{ops: ops}, p.later[:0]
}

// Width is the number of cells a decoded tuple holds.
func (p *DecodePlan) Width() int { return p.width }

// Tested walks record b, checking every value, and decodes the tested
// cells into t, which is Width cells long, at their tuple positions; the
// other cells of t are left as they are. Its strings are copied out of b.
func (p *DecodePlan) Tested(t Tuple, b []byte) error {
	p.r.b, p.r.area, p.r.base = b, nil, 0
	return p.r.walk(t, &p.later)
}

// TestedIn is Tested for the n-byte record at offset off of area: the
// strings it decodes, now or in Rest, are cut out of area's one string.
func (p *DecodePlan) TestedIn(t Tuple, area *StrArea, off, n int) error {
	b, err := area.record(off, n)
	if err != nil {
		return err
	}
	p.r.b, p.r.area, p.r.base = b, area, off
	return p.r.walk(t, &p.later)
}

// Rest decodes into t the kept cells the last Tested or TestedIn left
// out, from the same record, whose bytes must not have changed since.
// That walk checked them, so Rest cannot fail.
func (p *DecodePlan) Rest(t Tuple) {
	r := &p.r
	for _, c := range p.later {
		pos := int(c.off)
		kind := Kind(r.b[pos])
		pos++
		switch kind {
		case KindNull:
			t[c.at] = Null()
		case KindInt:
			u, w := short(r.b[pos:])
			if w == 0 {
				u, _ = binary.Uvarint(r.b[pos:])
			}
			t[c.at] = Int(unzig(u))
		case KindFloat:
			t[c.at] = Float(math.Float64frombits(binary.LittleEndian.Uint64(r.b[pos : pos+8])))
		case KindString:
			l, w := short(r.b[pos:])
			if w == 0 {
				l, w = binary.Uvarint(r.b[pos:])
			}
			t[c.at] = r.str(pos+w, pos+w+int(l))
		}
	}
}

// str is the string at b[i:j] of the record: a cut of its area's string,
// or with no area a copy.
func (r *record) str(i, j int) Value {
	if r.area != nil {
		return Str(r.area.cut(r.base+i, r.base+j))
	}
	return Str(string(r.b[i:j]))
}

var errArity = errors.New("corrupt tuple: bad arity varint")

func errWidth(n uint64, keep int) error {
	return fmt.Errorf("stored tuple width %d != schema width %d", n, keep)
}

// walk is the one decoder. It checks every value of the record, which
// must be len(r.ops) long, decodes the ones r.ops says to decode now into
// t, in order, and notes in *later where those it says to decode later
// start; later is nil when r.ops has none. It stores nothing into r, so
// that a record on its caller's stack, and the ops it points at, stay
// there.
func (r *record) walk(t Tuple, later *[]laterCell) error {
	b, ops := r.b, r.ops
	if later != nil {
		*later = (*later)[:0]
	}
	n, pos := short(b)
	if pos == 0 {
		n, pos = binary.Uvarint(b)
	}
	if pos <= 0 || n > uint64(len(b)) { // a value takes at least one byte
		return errArity
	}
	if uint64(len(ops)) != n {
		return errWidth(n, len(ops))
	}
	at := 0
	for i, op := range ops {
		if pos >= len(b) {
			return fmt.Errorf("corrupt tuple: truncated at value %d", i)
		}
		start := pos
		kind := Kind(b[pos])
		pos++
		switch kind {
		case KindNull:
			if op == decodeNow {
				t[at] = Null()
			}
		case KindInt:
			u, w := short(b[pos:])
			if w == 0 {
				u, w = binary.Uvarint(b[pos:])
				if w <= 0 {
					return fmt.Errorf("corrupt tuple: bad int varint at value %d", i)
				}
			}
			pos += w
			if op == decodeNow {
				t[at] = Int(unzig(u))
			}
		case KindFloat:
			if pos+8 > len(b) {
				return fmt.Errorf("corrupt tuple: truncated float at value %d", i)
			}
			if op == decodeNow {
				t[at] = Float(math.Float64frombits(binary.LittleEndian.Uint64(b[pos : pos+8])))
			}
			pos += 8
		case KindString:
			l, w := short(b[pos:])
			if w == 0 {
				l, w = binary.Uvarint(b[pos:])
				if w <= 0 {
					return fmt.Errorf("corrupt tuple: bad string length at value %d", i)
				}
			}
			pos += w
			if l > uint64(len(b)-pos) {
				return fmt.Errorf("corrupt tuple: truncated string at value %d", i)
			}
			if op == decodeNow {
				t[at] = r.str(pos, pos+int(l))
			}
			pos += int(l)
		default:
			return fmt.Errorf("corrupt tuple: unknown kind %d at value %d", kind, i)
		}
		if op != skipCell {
			if op == decodeLater {
				*later = append(*later, laterCell{int32(at), int32(start)})
			}
			at++
		}
	}
	return nil
}

// short reads the uvarint b starts with when it takes one to three bytes,
// as a stored string length or an int below 2^20 in magnitude does,
// without binary.Uvarint's loop, and returns w = 0 for any other, which
// binary.Uvarint then reads.
func short(b []byte) (u uint64, w int) {
	if len(b) > 0 && b[0] < 0x80 {
		return uint64(b[0]), 1
	}
	if len(b) < 2 {
		return 0, 0
	}
	u = uint64(b[0]&0x7f) | uint64(b[1]&0x7f)<<7
	if b[1] < 0x80 {
		return u, 2
	}
	if len(b) > 2 && b[2] < 0x80 {
		return u | uint64(b[2])<<14, 3
	}
	return 0, 0
}

// unzig is the signed value of a zig-zag encoded varint (binary.Varint's).
func unzig(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
