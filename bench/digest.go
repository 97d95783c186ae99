package main

import (
	"encoding/binary"
	"math"

	"repro/internal/types"
)

// digest identifies a result's row multiset regardless of row order: the
// row count plus the wrapping sum of per-row hashes. Async results arrive
// in call-completion order, so the check must not depend on order, and a
// sum (unlike xor) does not cancel duplicated rows.
type digest struct {
	rows int
	sum  uint64
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

type rowHash uint64

func (h *rowHash) byte(b byte) { *h = (*h ^ rowHash(b)) * fnvPrime }

func (h *rowHash) null() { h.byte(0) }

func (h *rowHash) int(n int64) {
	h.byte(1)
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(n))
	for _, c := range b {
		h.byte(c)
	}
}

// float hashes integral values as ints: a JSON response carries every
// number as float64, and the same cell must hash the same on both paths.
func (h *rowHash) float(f float64) {
	if f == math.Trunc(f) && math.Abs(f) < 1<<53 {
		h.int(int64(f))
		return
	}
	h.byte(2)
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
	for _, c := range b {
		h.byte(c)
	}
}

func (h *rowHash) str(s string) {
	h.byte(3)
	for i := 0; i < len(s); i++ {
		h.byte(s[i])
	}
	h.byte(0xff)
}

// mixed finalizes a row hash (splitmix64) so that sums of row hashes do
// not inherit FNV's weak high bits.
func (h rowHash) mixed() uint64 {
	x := uint64(h)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// digestTuples digests an in-process result.
func digestTuples(rows []types.Tuple) digest {
	d := digest{rows: len(rows)}
	for _, row := range rows {
		h := rowHash(fnvOffset)
		for _, v := range row {
			switch v.Kind {
			case types.KindNull:
				h.null()
			case types.KindInt:
				h.int(v.I)
			case types.KindFloat:
				h.float(v.F)
			default:
				h.str(v.AsString())
			}
		}
		d.sum += h.mixed()
	}
	return d
}

// digestJSON digests a wsqd /query response body's rows (JSON-native
// cells: nil, float64, string), matching digestTuples cell for cell.
func digestJSON(rows [][]interface{}) digest {
	d := digest{rows: len(rows)}
	for _, row := range rows {
		h := rowHash(fnvOffset)
		for _, v := range row {
			switch x := v.(type) {
			case nil:
				h.null()
			case float64:
				h.float(x)
			case string:
				h.str(x)
			default:
				// No other JSON-native cell exists; hash a marker so an
				// unexpected shape can never match a reference digest.
				h.byte(0xfe)
			}
		}
		d.sum += h.mixed()
	}
	return d
}
