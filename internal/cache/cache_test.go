package cache

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/types"
)

func rows(vals ...int64) []types.Tuple {
	out := make([]types.Tuple, len(vals))
	for i, v := range vals {
		out[i] = types.Tuple{types.Int(v)}
	}
	return out
}

func TestGetPut(t *testing.T) {
	c := New(4)
	if _, ok := c.Get("k"); ok {
		t.Error("empty cache should miss")
	}
	c.Put("k", rows(1, 2))
	got, ok := c.Get("k")
	if !ok || len(got) != 2 || got[0][0].I != 1 {
		t.Errorf("get: %v %v", got, ok)
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("stats: %d/%d", hits, misses)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(3)
	for i := 0; i < 3; i++ {
		c.Put(fmt.Sprintf("k%d", i), rows(int64(i)))
	}
	c.Get("k0") // refresh k0
	c.Put("k3", rows(3))
	if _, ok := c.Get("k1"); ok {
		t.Error("k1 should have been evicted (least recently used)")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%s should be resident", k)
		}
	}
	if c.Len() != 3 {
		t.Errorf("len: %d", c.Len())
	}
}

// TestPeekCountsOnlyHits: Peek answers, counts and refreshes a hit as Get
// does, and leaves a miss uncounted for the Get that follows it.
func TestPeekCountsOnlyHits(t *testing.T) {
	c := New(2)
	if _, ok := c.Peek([]byte("k0")); ok {
		t.Error("empty cache should miss")
	}
	c.Put("k0", rows(0))
	c.Put("k1", rows(1))
	if got, ok := c.Peek([]byte("k0")); !ok || got[0][0].I != 0 {
		t.Errorf("peek: %v %v", got, ok)
	}
	c.Put("k2", rows(2)) // k0 was refreshed: k1 goes
	if _, ok := c.Peek([]byte("k1")); ok {
		t.Error("k1 should have been evicted (least recently used)")
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 0 {
		t.Errorf("stats: %d/%d, want 1 hit and no miss", hits, misses)
	}
}

func TestPutOverwrite(t *testing.T) {
	c := New(2)
	c.Put("k", rows(1))
	c.Put("k", rows(2, 3))
	got, _ := c.Get("k")
	if len(got) != 2 {
		t.Errorf("overwrite: %v", got)
	}
	if c.Len() != 1 {
		t.Errorf("len after overwrite: %d", c.Len())
	}
}

func TestDisabledCache(t *testing.T) {
	for _, c := range []*Cache{New(0), New(-1), nil} {
		c.Put("k", rows(1))
		if _, ok := c.Get("k"); ok {
			t.Error("disabled cache should never hit")
		}
		if c.Len() != 0 {
			t.Error("disabled cache length")
		}
		c.Reset() // must not panic
	}
}

func TestReset(t *testing.T) {
	c := New(4)
	c.Put("k", rows(1))
	c.Get("k")
	c.Reset()
	if c.Len() != 0 {
		t.Error("reset should clear")
	}
	if h, m := c.Stats(); h != 0 || m != 0 {
		t.Error("reset should clear stats")
	}
}

func TestEvictions(t *testing.T) {
	c := New(2)
	c.Put("a", rows(1))
	c.Put("b", rows(2))
	c.Put("c", rows(3)) // evicts a
	if c.Evictions() != 1 {
		t.Errorf("evictions = %d, want 1", c.Evictions())
	}
	c.Reset()
	if c.Evictions() != 0 {
		t.Error("reset should clear evictions")
	}
	// nil/disabled caches must stay no-ops.
	var nilc *Cache
	if nilc.Evictions() != 0 || nilc.Entries(1) != nil {
		t.Error("nil cache should be inert")
	}
}

func TestEntriesRecencyOrder(t *testing.T) {
	c := New(8)
	for i := 0; i < 4; i++ {
		c.Put(fmt.Sprintf("k%d", i), rows(int64(i)))
	}
	c.Get("k1") // hottest now
	es := c.Entries(2)
	if len(es) != 2 || es[0].Key != "k1" || es[1].Key != "k3" {
		t.Errorf("entries = %+v, want [k1 k3]", es)
	}
	if all := c.Entries(0); len(all) != 4 {
		t.Errorf("Entries(0) = %d entries, want all 4", len(all))
	}
	if es[0].Rows[0][0].I != 1 {
		t.Errorf("entry rows: %v", es[0].Rows)
	}
}

func TestObserveExposesCounters(t *testing.T) {
	c := New(2)
	reg := obs.NewRegistry()
	c.Observe(reg)
	c.Put("a", rows(1))
	c.Get("a")
	c.Get("zzz")
	c.Put("b", rows(2))
	c.Put("c", rows(3)) // evict
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"wsq_cache_hits_total 1",
		"wsq_cache_misses_total 1",
		"wsq_cache_evictions_total 1",
		"wsq_cache_entries 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q in:\n%s", want, out)
		}
	}
	// Observe is idempotent and nil-safe.
	c.Observe(reg)
	(*Cache)(nil).Observe(reg)
}

func TestConcurrentAccess(t *testing.T) {
	c := New(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", i%100)
				switch i % 3 {
				case 0:
					c.Put(k, rows(int64(i)))
				case 1:
					c.Get(k)
				default:
					c.Peek([]byte(k))
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 64 {
		t.Errorf("capacity exceeded: %d", c.Len())
	}
}
