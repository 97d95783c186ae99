package async

import (
	"bytes"
	"hash/maphash"
)

// roundKeys holds a binding round's keys in one byte buffer and, when the
// pump memoizes, finds a key among those already added: open addressing
// over maphash.Bytes, each probe checked with bytes.Equal. Buffer and
// table are kept across rounds, so a round of any size allocates nothing
// once they have grown to it — where a map[string]int made a string per
// key it added.
type roundKeys struct {
	buf   []byte  // the keys, one after another
	ends  []int   // key i is buf[ends[i-1]:ends[i]]
	slots []int32 // a key's index plus one; 0 is an empty slot
	dedup bool
	seed  maphash.Seed
}

// reset empties r for a round of at most n keys; with dedup, add finds a
// key already added instead of adding it again.
func (r *roundKeys) reset(n int, dedup bool) {
	r.buf, r.ends, r.dedup = r.buf[:0], r.ends[:0], dedup
	if !dedup {
		return
	}
	size := 8
	for size < 2*n {
		size *= 2
	}
	if cap(r.slots) < size {
		r.slots = make([]int32, size)
		r.seed = maphash.MakeSeed()
	}
	r.slots = r.slots[:size]
	clear(r.slots)
}

// add returns key's index, adding key unless dedup is on and an equal key
// is already there. key is copied; r never holds it.
func (r *roundKeys) add(key []byte) int {
	if !r.dedup {
		return r.push(key)
	}
	mask := uint64(len(r.slots) - 1)
	for i := maphash.Bytes(r.seed, key) & mask; ; i = (i + 1) & mask {
		k := int(r.slots[i]) - 1
		if k < 0 {
			r.slots[i] = int32(len(r.ends) + 1)
			return r.push(key)
		}
		if bytes.Equal(r.key(k), key) {
			return k
		}
	}
}

func (r *roundKeys) push(key []byte) int {
	r.buf = append(r.buf, key...)
	r.ends = append(r.ends, len(r.buf))
	return len(r.ends) - 1
}

// key returns key i, a view of the buffer valid until the next reset.
func (r *roundKeys) key(i int) []byte {
	start := 0
	if i > 0 {
		start = r.ends[i-1]
	}
	return r.buf[start:r.ends[i]:r.ends[i]]
}
