package shard

import (
	"fmt"
	"sort"
)

// Ring is an immutable consistent-hash ring over tier members. Each
// member contributes vnodes points (hashed "id#i") on a 64-bit circle;
// a key belongs to the first point clockwise from its hash. Immutability
// keeps lookups lock-free — membership changes build a new Ring and swap
// the pointer at a higher layer.
type Ring struct {
	points  []ringPoint // sorted by hash
	members map[string]Member
	vnodes  int
}

type ringPoint struct {
	hash uint64
	id   string
}

// fnv64a is FNV-1a with a 64-bit avalanche finalizer, inlined so key
// hashing allocates nothing. Raw FNV clusters short, similar inputs
// ("w1#0", "w2#0", ...) in the high bits that order the ring, which
// skews ownership badly; the finalizer spreads them uniformly.
func fnv64a(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// NewRing builds a ring with the given virtual-node count per member
// (0 selects DefaultVNodes). An empty member list yields an empty ring
// whose lookups report !ok.
func NewRing(members []Member, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	r := &Ring{
		points:  make([]ringPoint, 0, len(members)*vnodes),
		members: make(map[string]Member, len(members)),
		vnodes:  vnodes,
	}
	for _, m := range members {
		r.members[m.ID] = m
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{
				hash: fnv64a(fmt.Sprintf("%s#%d", m.ID, i)),
				id:   m.ID,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Tie-break on member ID so equal hashes order deterministically.
		return r.points[i].id < r.points[j].id
	})
	return r
}

// Len returns the number of members on the ring.
func (r *Ring) Len() int { return len(r.members) }

// Members returns the ring membership in ID order.
func (r *Ring) Members() []Member {
	out := make([]Member, 0, len(r.members))
	for _, m := range r.members {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Owner returns the member owning key: the first ring point at or after
// the key's hash, wrapping at the top of the circle.
func (r *Ring) Owner(key string) (Member, bool) {
	if len(r.points) == 0 {
		return Member{}, false
	}
	h := fnv64a(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.members[r.points[i].id], true
}

// Successors returns up to n distinct members in preference order for
// key, starting with the owner and walking clockwise. This is the
// coordinator's failover list: if the owner is unreachable, the next
// distinct member takes the query.
func (r *Ring) Successors(key string, n int) []Member {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	h := fnv64a(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]Member, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if seen[p.id] {
			continue
		}
		seen[p.id] = true
		out = append(out, r.members[p.id])
	}
	return out
}

// Without returns a new ring excluding the given member — the live view
// after a drain. The receiver is unchanged.
func (r *Ring) Without(id string) *Ring {
	rest := make([]Member, 0, len(r.members))
	for _, m := range r.Members() {
		if m.ID != id {
			rest = append(rest, m)
		}
	}
	return NewRing(rest, r.vnodes)
}
