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
// The 64-bit hash only picks the chain. Every candidate is re-checked cell
// by cell with eq, and eq is where the operators differ: join keys are
// equal when Value.Compare says so (the evaluator's `=`), group and
// DISTINCT keys when Value.SameKey does.
type keyTable struct {
	width int
	eq    func(a, b types.Value) bool
	ends  map[uint64][2]int32 // hash → first and last entry of its chain
	next  []int32             // entry → next entry of its chain, -1 at its end
	keys  []types.Value       // entry i's key is keys[i*width : (i+1)*width]
}

func newKeyTable(width int, eq func(a, b types.Value) bool) *keyTable {
	return &keyTable{width: width, eq: eq, ends: make(map[uint64][2]int32)}
}

// joinEq is the key equality of the hash joins.
func joinEq(a, b types.Value) bool { return a.Compare(b) == 0 }

// keyHash hashes a key so that values either equality calls equal hash
// equal: a number by the bits of its float64 value (Int(1) like Float(1),
// an int beyond 2^53 like the float it rounds to), -0 as +0, every NaN as
// one pattern, a string by its bytes.
func keyHash(key []types.Value) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211 // FNV-1a
	h := uint64(offset)
	for _, v := range key {
		x := uint64(v.I) // NULL, and a placeholder's call
		switch v.Kind {
		case types.KindInt, types.KindFloat:
			f := v.F
			if v.Kind == types.KindInt {
				f = float64(v.I)
			}
			switch {
			case f == 0:
				x = 0
			case math.IsNaN(f):
				x = math.Float64bits(math.NaN())
			default:
				x = math.Float64bits(f)
			}
		case types.KindString:
			for i := 0; i < len(v.S); i++ {
				h = (h ^ uint64(v.S[i])) * prime
			}
			x = uint64(len(v.S))
		}
		h = (h ^ x) * prime
	}
	return h
}

// reset removes every entry, keeping the table's storage, and lets go of
// the keys' strings.
func (kt *keyTable) reset() {
	clear(kt.ends)
	clear(kt.keys[:cap(kt.keys)])
	kt.next, kt.keys = kt.next[:0], kt.keys[:0]
}

// len is the number of entries.
func (kt *keyTable) len() int { return len(kt.next) }

// key returns entry i's key, capped so that an append cannot reach entry
// i+1's.
func (kt *keyTable) key(i int) []types.Value {
	return kt.keys[i*kt.width : (i+1)*kt.width : (i+1)*kt.width]
}

// add appends key as a new entry, whether or not an equal one is present,
// and returns its number.
func (kt *keyTable) add(key []types.Value) int { return kt.addHashed(keyHash(key), key) }

func (kt *keyTable) addHashed(h uint64, key []types.Value) int {
	i := int32(len(kt.next))
	kt.next = append(kt.next, -1)
	kt.keys = append(kt.keys, key...)
	e, ok := kt.ends[h]
	if ok {
		kt.next[e[1]] = i
	} else {
		e[0] = i
	}
	e[1] = i
	kt.ends[h] = e
	return int(i)
}

// find returns the first entry equal to key, or -1.
func (kt *keyTable) find(key []types.Value) int {
	if e, ok := kt.ends[keyHash(key)]; ok {
		return kt.match(e[0], key)
	}
	return -1
}

// findNext returns the first entry after i equal to key, or -1.
func (kt *keyTable) findNext(i int, key []types.Value) int { return kt.match(kt.next[i], key) }

// match walks a chain from entry i to the first entry equal to key.
func (kt *keyTable) match(i int32, key []types.Value) int {
candidates:
	for ; i >= 0; i = kt.next[i] {
		for c, v := range kt.key(int(i)) {
			if !kt.eq(key[c], v) {
				continue candidates
			}
		}
		return int(i)
	}
	return -1
}

// intern returns the entry equal to key, adding it when there is none.
func (kt *keyTable) intern(key []types.Value) (i int, added bool) {
	h := keyHash(key)
	if e, ok := kt.ends[h]; ok {
		if i := kt.match(e[0], key); i >= 0 {
			return i, false
		}
	}
	return kt.addHashed(h, key), true
}
