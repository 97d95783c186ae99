package exec

import (
	"math"

	"repro/internal/types"
)

// keyTable is the one hash table behind HashJoin, HashSemiJoin, Aggregate
// and Distinct. Entries are keys of a fixed width, numbered in insertion
// order and stored flat, so an insert allocates nothing of its own.
// Entries whose keys hash alike are chained in insertion order: walking a
// chain meets equal keys in the order they were added, which is what keeps
// HashJoin's output in right-scan order.
//
// The chains are found through an open-addressing index addressed by
// keyHash itself, not through a map that would hash the hash again: a
// power-of-two array of slots, each holding one chain's first and last
// entry and the full 64-bit hash its entries share, probed linearly from
// the slot the hash's low bits name. It is at most half full, and it grows
// by moving each chain to the slot its stored hash names in an array twice
// as large, never by hashing a key again.
//
// The hash only picks the chain. Every candidate is re-checked cell by
// cell: two ints as int64s and two strings as strings, in place, which is
// what both equalities say of them, and every other pair with eq, which is
// where the operators differ: join keys are equal when Value.Compare says
// so (the evaluator's `=`), group and DISTINCT keys when Value.SameKey
// does.
type keyTable struct {
	width int
	eq    func(a, b types.Value) bool
	// Slot s holds the chain of the entries hashing hashes[s]: its first
	// and last entry are ends[s], and ends[s][0] is -1 for a free slot.
	ends   [][2]int32
	hashes []uint64
	chains int           // the slots in use
	next   []int32       // entry → next entry of its chain, -1 at its end
	keys   []types.Value // entry i's key is keys[i*width : (i+1)*width]
}

// minSlots is the index's size on its first entry: a table of up to 32
// distinct hashes, such as a GROUP BY over a few groups, never grows.
const minSlots = 64

// joinEq is the key equality of the hash joins.
func joinEq(a, b types.Value) bool { return a.Compare(b) == 0 }

// keyHash hashes a key so that values either equality calls equal hash
// equal: a number by the bits of its float64 value (Int(1) like Float(1),
// an int beyond 2^53 like the float it rounds to), -0 as +0, every NaN as
// one pattern, a string by its bytes, eight at a time. Each cell is
// folded into an FNV-1a-style state, which is mixed at the end
// (splitmix64's finalizer): the key table's index reads the hash's low
// bits, and a small int's float64 bits differ only in their high ones.
func keyHash(key []types.Value) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211 // FNV-1a
	h := uint64(offset)
	for i := range key {
		v := &key[i]
		x := uint64(v.I) // NULL, and a placeholder's call
		switch v.Kind {
		case types.KindInt: // 0 as +0, the rest as the float they round to
			if v.I != 0 {
				x = math.Float64bits(float64(v.I))
			}
		case types.KindFloat:
			switch f := v.F; {
			case f == 0:
				x = 0
			case math.IsNaN(f):
				x = math.Float64bits(math.NaN())
			default:
				x = math.Float64bits(f)
			}
		case types.KindString:
			s := v.S
			for ; len(s) > 8; s = s[8:] {
				h = (h ^ word(s)) * prime
			}
			h = (h ^ tail(s)) * prime
			x = uint64(len(v.S))
		}
		h = (h ^ x) * prime
	}
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	return h ^ h>>31
}

// word is the first eight bytes of s, little-endian.
func word(s string) uint64 {
	_ = s[7]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

// tail packs a string of at most eight bytes into a word without a loop,
// as wyhash does: from four bytes on, its first four and last four (which
// overlap below eight), else its first, middle and last byte. Given the
// length, which keyHash folds in too, no two strings pack alike.
func tail(s string) uint64 {
	switch n := len(s); {
	case n == 8:
		return word(s)
	case n >= 4:
		return uint64(half(s)) | uint64(half(s[n-4:]))<<32
	case n > 0:
		return uint64(s[0]) | uint64(s[n/2])<<8 | uint64(s[n-1])<<16
	}
	return 0
}

// half is the first four bytes of s, little-endian.
func half(s string) uint32 {
	_ = s[3]
	return uint32(s[0]) | uint32(s[1])<<8 | uint32(s[2])<<16 | uint32(s[3])<<24
}

// reset empties the table for keys of width cells that eq compares,
// keeping its storage. Its user, an operator, calls it at every Open.
func (kt *keyTable) reset(width int, eq func(a, b types.Value) bool) {
	kt.width, kt.eq = width, eq
	kt.empty()
}

// empty removes every entry, keeping the table's storage, and lets go of
// the keys' strings: nothing is written past len(kt.keys), so what lies
// there is already zero.
func (kt *keyTable) empty() {
	for s := range kt.ends {
		kt.ends[s] = [2]int32{-1, -1}
	}
	kt.chains = 0
	clear(kt.keys)
	kt.next, kt.keys = kt.next[:0], kt.keys[:0]
}

// len is the number of entries.
func (kt *keyTable) len() int { return len(kt.next) }

// key returns entry i's key, capped so that an append cannot reach entry
// i+1's.
func (kt *keyTable) key(i int) []types.Value {
	return kt.keys[i*kt.width : (i+1)*kt.width : (i+1)*kt.width]
}

// slot returns the slot of hash h's chain or, when it has none, the free
// slot where its chain goes. The index must not be full.
func (kt *keyTable) slot(h uint64) int {
	mask := len(kt.hashes) - 1
	s := int(h) & mask
	for kt.ends[s][0] >= 0 && kt.hashes[s] != h {
		s = (s + 1) & mask
	}
	return s
}

// grow doubles the index (or makes it, minSlots long), moving each chain
// to the slot its stored hash names.
func (kt *keyTable) grow() {
	ends, hashes := kt.ends, kt.hashes
	n := max(minSlots, 2*len(hashes))
	kt.ends, kt.hashes = make([][2]int32, n), make([]uint64, n)
	for s := range kt.ends {
		kt.ends[s] = [2]int32{-1, -1}
	}
	for s, e := range ends {
		if e[0] >= 0 {
			t := kt.slot(hashes[s])
			kt.ends[t], kt.hashes[t] = e, hashes[s]
		}
	}
}

// add appends key as a new entry, whether or not an equal one is present,
// and returns its number.
func (kt *keyTable) add(key []types.Value) int { return kt.addHashed(keyHash(key), key) }

func (kt *keyTable) addHashed(h uint64, key []types.Value) int {
	if 2*(kt.chains+1) > len(kt.hashes) {
		kt.grow()
	}
	return kt.addAt(kt.slot(h), h, key)
}

// addAt appends key, which hashes h, as a new entry of the chain in slot
// s, or of a new chain there when s is free.
func (kt *keyTable) addAt(s int, h uint64, key []types.Value) int {
	i := int32(len(kt.next))
	kt.next = append(kt.next, -1)
	kt.keys = append(kt.keys, key...)
	if e := &kt.ends[s]; e[0] >= 0 {
		kt.next[e[1]] = i
		e[1] = i
	} else {
		*e = [2]int32{i, i}
		kt.hashes[s] = h
		kt.chains++
	}
	return int(i)
}

// find returns the first entry equal to key, or -1.
func (kt *keyTable) find(key []types.Value) int {
	if kt.chains == 0 {
		return -1
	}
	return kt.match(kt.ends[kt.slot(keyHash(key))][0], key)
}

// findNext returns the first entry after i equal to key, or -1.
func (kt *keyTable) findNext(i int, key []types.Value) int { return kt.match(kt.next[i], key) }

// match walks a chain from entry i to the first entry equal to key.
func (kt *keyTable) match(i int32, key []types.Value) int {
candidates:
	for ; i >= 0; i = kt.next[i] {
		cells := kt.key(int(i))
		for c := range cells {
			k, v := &key[c], &cells[c]
			switch {
			case k.Kind == types.KindInt && v.Kind == types.KindInt:
				if k.I != v.I {
					continue candidates
				}
			case k.Kind == types.KindString && v.Kind == types.KindString:
				if k.S != v.S {
					continue candidates
				}
			default:
				if !kt.eq(*k, *v) {
					continue candidates
				}
			}
		}
		return int(i)
	}
	return -1
}

// intern returns the entry equal to key, adding it when there is none.
func (kt *keyTable) intern(key []types.Value) (i int, added bool) {
	h := keyHash(key)
	if 2*(kt.chains+1) > len(kt.hashes) {
		kt.grow()
	}
	s := kt.slot(h)
	if i := kt.match(kt.ends[s][0], key); i >= 0 {
		return i, false
	}
	return kt.addAt(s, h, key), true
}
