// Package cache provides a concurrency-safe LRU cache for external search
// results. Caching expensive external methods is the [HN96] technique the
// paper cites as "important for avoiding repeated external calls" — e.g.
// in the Figure 7 plan, where a cross-product placed below a dependent
// join would otherwise send |R| identical calls per Sig.
package cache

import (
	"container/list"

	"repro/internal/lockrank"
	"repro/internal/obs"
	"repro/internal/types"
)

// Cache is a fixed-capacity LRU map from call keys to result rows.
type Cache struct {
	mu        lockrank.CacheMu
	cap       int
	items     map[string]*list.Element
	lru       *list.List // of *entry; front = most recently used
	hits      int64
	misses    int64
	evictions int64
}

type entry struct {
	key  string
	rows []types.Tuple
}

// New creates a cache holding up to capacity entries; capacity <= 0
// disables caching (every Get misses, Put is a no-op).
func New(capacity int) *Cache {
	return &Cache{
		cap:   capacity,
		items: make(map[string]*list.Element),
		lru:   list.New(),
	}
}

// Get returns the cached rows for key.
func (c *Cache) Get(key string) ([]types.Tuple, bool) {
	if c == nil || c.cap <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.found(c.items[key], true)
}

// Peek returns the cached rows for key as Get does, but a miss is not
// counted: the caller looks a missed key up again with Get. The key's
// bytes index the map as they are, with no string made of them.
func (c *Cache) Peek(key []byte) ([]types.Tuple, bool) {
	if c == nil || c.cap <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.found(c.items[string(key)], false)
}

// found counts a lookup that found el (nil for none) and refreshes a hit.
func (c *Cache) found(el *list.Element, countMiss bool) ([]types.Tuple, bool) {
	if el == nil {
		if countMiss {
			c.misses++
		}
		return nil, false
	}
	c.hits++
	c.lru.MoveToFront(el)
	return el.Value.(*entry).rows, true
}

// Put stores rows under key, evicting the least recently used entry when
// over capacity.
func (c *Cache) Put(key string, rows []types.Tuple) {
	if c == nil || c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*entry).rows = rows
		c.lru.MoveToFront(el)
		return
	}
	el := c.lru.PushFront(&entry{key: key, rows: rows})
	c.items[key] = el
	for c.lru.Len() > c.cap {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.items, back.Value.(*entry).key)
		c.evictions++
	}
}

// Entry is one cached key with its rows, as snapshotted by Entries.
type Entry struct {
	Key  string
	Rows []types.Tuple
}

// Entries snapshots up to max entries in recency order (most recently
// used first) — the "hot keys" a draining shard hands to their new homes.
// max <= 0 snapshots everything.
func (c *Cache) Entries(max int) []Entry {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.lru.Len()
	if max > 0 && n > max {
		n = max
	}
	out := make([]Entry, 0, n)
	for el := c.lru.Front(); el != nil && len(out) < n; el = el.Next() {
		e := el.Value.(*entry)
		out = append(out, Entry{Key: e.key, Rows: e.rows})
	}
	return out
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Stats returns hit/miss counters.
func (c *Cache) Stats() (hits, misses int64) {
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Evictions returns the number of entries dropped at capacity.
func (c *Cache) Evictions() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}

// Observe implements obs.Observable: it exposes the cache's counters on a
// metrics registry so cache effectiveness is visible on /metrics.
// Counters are sampled at scrape time from the cache's
// own fields; Reset (used between experiment runs) therefore reads as a
// Prometheus counter reset, which scrapers handle natively.
func (c *Cache) Observe(reg *obs.Registry) {
	if c == nil || reg == nil {
		return
	}
	reg.CounterFunc("wsq_cache_hits_total",
		"Result-cache lookups served from the cache.", func() float64 {
			hits, _ := c.Stats()
			return float64(hits)
		})
	reg.CounterFunc("wsq_cache_misses_total",
		"Result-cache lookups that found nothing.", func() float64 {
			_, misses := c.Stats()
			return float64(misses)
		})
	reg.CounterFunc("wsq_cache_evictions_total",
		"Result-cache entries dropped at capacity (LRU).", func() float64 {
			return float64(c.Evictions())
		})
	reg.GaugeFunc("wsq_cache_entries",
		"Result-cache entries currently held.", func() float64 {
			return float64(c.Len())
		})
}

// Reset clears contents and counters.
func (c *Cache) Reset() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.items = make(map[string]*list.Element)
	c.lru = list.New()
	c.hits, c.misses, c.evictions = 0, 0, 0
}
