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
// storage of its own, every value decoded: a DecodePlan over the width
// the record states, every cell decoded now.
func DecodeTuple(b []byte) (Tuple, error) {
	n, w := binary.Uvarint(b)
	if w <= 0 || n > uint64(len(b)) { // a value takes at least one byte
		return nil, errArity
	}
	p := DecodePlan{ops: make([]cellOp, n), width: int(n)} // all decodeNow
	t := make(Tuple, n)
	if err := p.Tested(t, b); err != nil {
		return nil, err
	}
	return t, nil
}

// StrArea is a byte area that records lie in — a page's record area —
// whose string cells DecodePlan.TestedIn cuts out of one string:
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
	ops   []cellOp // one per stored value
	width int      // the cells a tuple holds
	// The record Tested walked last: its bytes, where its strings are cut
	// from, and where its cells left for Rest start.
	b     []byte
	area  *StrArea // nil: strings are copied out of b
	base  int      // b's offset in area
	later []laterCell
}

// cellOp is what a walk does with one stored value besides checking it.
type cellOp uint8

const (
	decodeNow   cellOp = iota // decode it into the tuple
	decodeLater               // note where it is, for Rest
	skipCell                  // nothing: the tuple does not hold it
)

// laterCell is a kept cell Rest decodes: its position in the tuple and
// the offset of its kind byte in the record.
type laterCell struct{ at, off int32 }

// Reset sets p to decode records of len(keep) values, of which keep marks
// the ones a tuple holds, keeping p's storage. test has one mark per kept
// cell, in tuple order, and marks the ones Tested decodes; a nil test
// marks them all, so that Rest has nothing to do.
func (p *DecodePlan) Reset(keep, test []bool) {
	ops := p.ops[:0]
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
	p.ops, p.b, p.area, p.later = ops, nil, nil, p.later[:0]
}

// Width is the number of cells a decoded tuple holds.
func (p *DecodePlan) Width() int { return p.width }

// Tested walks record b, checking every value, and decodes the tested
// cells into t, which is Width cells long, at their tuple positions; the
// other cells of t are left as they are. Its strings are copied out of b.
func (p *DecodePlan) Tested(t Tuple, b []byte) error {
	p.b, p.area, p.base = b, nil, 0
	return p.walk(t)
}

// TestedIn is Tested for the n-byte record at offset off of area: the
// strings it decodes, now or in Rest, are cut out of area's one string.
func (p *DecodePlan) TestedIn(t Tuple, area *StrArea, off, n int) error {
	b, err := area.record(off, n)
	if err != nil {
		return err
	}
	p.b, p.area, p.base = b, area, off
	return p.walk(t)
}

// Rest decodes into t the kept cells the last Tested or TestedIn left
// out, from the same record, whose bytes must not have changed since.
// That walk checked them, so Rest cannot fail.
func (p *DecodePlan) Rest(t Tuple) {
	for _, c := range p.later {
		pos := int(c.off)
		kind := Kind(p.b[pos])
		pos++
		switch kind {
		case KindNull:
			t[c.at] = Null()
		case KindInt:
			u, w := short(p.b[pos:])
			if w == 0 {
				u, _ = binary.Uvarint(p.b[pos:])
			}
			t[c.at] = Int(unzig(u))
		case KindFloat:
			t[c.at] = Float(math.Float64frombits(binary.LittleEndian.Uint64(p.b[pos : pos+8])))
		case KindString:
			l, w := short(p.b[pos:])
			if w == 0 {
				l, w = binary.Uvarint(p.b[pos:])
			}
			t[c.at] = p.str(pos+w, pos+w+int(l))
		}
	}
}

// str is the string at b[i:j] of the record: a cut of its area's string,
// or with no area a copy.
func (p *DecodePlan) str(i, j int) Value {
	if p.area != nil {
		return Str(p.area.cut(p.base+i, p.base+j))
	}
	return Str(string(p.b[i:j]))
}

var errArity = errors.New("corrupt tuple: bad arity varint")

// walk checks every value of the record, which must be len(p.ops) long,
// decodes the ones p.ops says to decode now into t, in order, and notes in
// p.later where those it says to decode later start.
func (p *DecodePlan) walk(t Tuple) error {
	b, ops := p.b, p.ops
	p.later = p.later[:0]
	n, pos := short(b)
	if pos == 0 {
		n, pos = binary.Uvarint(b)
	}
	if pos <= 0 || n > uint64(len(b)) { // a value takes at least one byte
		return errArity
	}
	if uint64(len(ops)) != n {
		return fmt.Errorf("stored tuple width %d != schema width %d", n, len(ops))
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
				t[at] = p.str(pos, pos+int(l))
			}
			pos += int(l)
		default:
			return fmt.Errorf("corrupt tuple: unknown kind %d at value %d", kind, i)
		}
		if op != skipCell {
			if op == decodeLater {
				p.later = append(p.later, laterCell{int32(at), int32(start)})
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
