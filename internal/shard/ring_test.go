package shard

import (
	"fmt"
	"testing"
)

func testMembers(n int) []Member {
	ms := make([]Member, n)
	for i := range ms {
		ms[i] = Member{ID: fmt.Sprintf("w%d", i+1), URL: fmt.Sprintf("http://w%d", i+1)}
	}
	return ms
}

func TestRingDeterministicAndTotal(t *testing.T) {
	r1 := NewRing(testMembers(4), 32)
	r2 := NewRing(testMembers(4), 32)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%d", i)
		a, ok := r1.Owner(key)
		if !ok {
			t.Fatalf("no owner for %q", key)
		}
		b, _ := r2.Owner(key)
		if a.ID != b.ID {
			t.Fatalf("owner for %q differs between identical rings: %s vs %s", key, a.ID, b.ID)
		}
	}
}

func TestRingDistribution(t *testing.T) {
	r := NewRing(testMembers(4), DefaultVNodes)
	counts := make(map[string]int)
	const n = 4000
	for i := 0; i < n; i++ {
		m, _ := r.Owner(fmt.Sprintf("key-%d", i))
		counts[m.ID]++
	}
	for id, c := range counts {
		// With 64 vnodes per member, each of 4 members should hold a
		// reasonable share; a collapsed ring would put ~everything on one.
		if c < n/16 {
			t.Errorf("member %s owns only %d/%d keys — ring badly skewed: %v", id, c, n, counts)
		}
	}
}

func TestRingSuccessorsDistinctAndOwnerFirst(t *testing.T) {
	r := NewRing(testMembers(5), 16)
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("key-%d", i)
		owner, _ := r.Owner(key)
		succ := r.Successors(key, 3)
		if len(succ) != 3 {
			t.Fatalf("successors(%q, 3) returned %d members", key, len(succ))
		}
		if succ[0].ID != owner.ID {
			t.Errorf("preference list for %q does not start with the owner", key)
		}
		seen := map[string]bool{}
		for _, m := range succ {
			if seen[m.ID] {
				t.Errorf("duplicate member %s in preference list for %q", m.ID, key)
			}
			seen[m.ID] = true
		}
	}
	if got := r.Successors("k", 99); len(got) != 5 {
		t.Errorf("successors capped at membership: got %d, want 5", len(got))
	}
}

// TestRingWithoutStability is the consistent-hashing property that makes
// drain cheap: removing one member must not move keys between the
// surviving members.
func TestRingWithoutStability(t *testing.T) {
	r := NewRing(testMembers(4), DefaultVNodes)
	smaller := r.Without("w3")
	if _, on := smaller.members["w3"]; on || smaller.Len() != 3 {
		t.Fatalf("Without did not remove the member")
	}
	if r.Len() != 4 {
		t.Fatalf("Without mutated the receiver")
	}
	moved, kept := 0, 0
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("key-%d", i)
		before, _ := r.Owner(key)
		after, _ := smaller.Owner(key)
		if before.ID == "w3" {
			if after.ID == "w3" {
				t.Fatalf("key %q still owned by removed member", key)
			}
			continue
		}
		if before.ID != after.ID {
			moved++
		} else {
			kept++
		}
	}
	if moved != 0 {
		t.Errorf("%d keys moved between surviving members (kept %d); consistent hashing must only remap the removed member's keys", moved, kept)
	}
}

func TestRingEmpty(t *testing.T) {
	r := NewRing(nil, 8)
	if _, ok := r.Owner("k"); ok {
		t.Error("empty ring claimed an owner")
	}
	if s := r.Successors("k", 2); len(s) != 0 {
		t.Errorf("empty ring returned successors: %v", s)
	}
}
