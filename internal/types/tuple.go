package types

import "strings"

// Tuple is a row of values. Tuples flow between iterator operators; during
// asynchronous iteration some of their values may be placeholders.
type Tuple []Value

// Clone returns a deep copy of the tuple. Values are immutable scalars, so
// copying the slice suffices.
func (t Tuple) Clone() Tuple {
	if t == nil {
		return nil
	}
	c := make(Tuple, len(t))
	copy(c, t)
	return c
}

// Concat returns a new tuple consisting of t followed by o.
func (t Tuple) Concat(o Tuple) Tuple {
	c := make(Tuple, 0, len(t)+len(o))
	c = append(c, t...)
	c = append(c, o...)
	return c
}

// HasPlaceholder reports whether any value in the tuple is a placeholder
// for a pending external call.
func (t Tuple) HasPlaceholder() bool {
	for _, v := range t {
		if v.IsPlaceholder() {
			return true
		}
	}
	return false
}

// PendingCalls returns the distinct CallIDs referenced by placeholder
// values in the tuple, in first-appearance order.
func (t Tuple) PendingCalls() []CallID {
	var ids []CallID
	for _, v := range t {
		if !v.IsPlaceholder() {
			continue
		}
		seen := false
		for _, id := range ids {
			if id == v.Call() {
				seen = true
				break
			}
		}
		if !seen {
			ids = append(ids, v.Call())
		}
	}
	return ids
}

// Equal reports whether two tuples are value-wise equal.
func (t Tuple) Equal(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if !t[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

// Key renders the tuple as a string that sorts tuples deterministically:
// Aggregate orders its groups by it. It is an ordering key, not an
// identity: a string cell may contain the separator, so two different
// tuples can render the same ("a\x1f3:b","c" and "a","b\x1f3:c" do).
// Equality of group and DISTINCT keys is SameKey, cell by cell.
func (t Tuple) Key() string {
	var b strings.Builder
	for i, v := range t {
		if i > 0 {
			b.WriteByte('\x1f')
		}
		b.WriteByte(byte('0' + v.Kind))
		b.WriteByte(':')
		b.WriteString(v.AsString())
	}
	return b.String()
}

// String renders the tuple for diagnostics: "<v1, v2, ...>".
func (t Tuple) String() string {
	var b strings.Builder
	b.WriteByte('<')
	for i, v := range t {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteByte('>')
	return b.String()
}
