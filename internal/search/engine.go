// Package search defines the external search-engine abstraction used by
// the WSQ virtual tables, together with a latency simulator and an HTTP
// server/client pair so that engine calls exercise a real network stack.
//
// In the paper, WSQ calls AltaVista and Google over the public Internet
// with per-request latencies of a second or more. This repository
// substitutes deterministic synthetic engines (package websim) served over
// localhost HTTP with injected latency — the same code path (network
// request, idle query processor, many concurrent requests allowed) with a
// controllable clock.
package search

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Result is one ranked search hit. Rank is 1-based, as in the paper's
// WebPages virtual table.
type Result struct {
	URL   string  `json:"url"`
	Rank  int     `json:"rank"`
	Date  string  `json:"date"`
	Score float64 `json:"score"`
}

// Engine is a keyword search engine as seen by WSQ: it can report the
// total hit count for an expression without delivering URLs (the cheap
// operation behind WebCount) and deliver the top-k ranked URLs (behind
// WebPages). Fetch retrieves a page body by URL (behind WebFetch, the
// crawler scenario of Section 4.2).
//
// Implementations must be safe for concurrent use: the whole premise of
// asynchronous iteration is that "search engines (and the Web in general)
// can handle many concurrent requests".
type Engine interface {
	// Name identifies the engine ("altavista", "google").
	Name() string
	// Count returns the total number of pages matching the query.
	Count(query string) (int64, error)
	// Search returns the top-k results for the query, rank ascending.
	Search(query string, k int) ([]Result, error)
	// Fetch returns the body of the page at url.
	Fetch(url string) (string, error)
}

// ErrNotFound is returned by Fetch for an unknown URL.
var ErrNotFound = errors.New("page not found")

// Registry maps engine names to engines. The WSQ planner resolves virtual
// table suffixes (WebCount_AV, WebPages_Google) against a registry.
type Registry struct {
	mu      sync.RWMutex
	engines map[string]Engine
	aliases map[string]string
	version atomic.Uint64
}

// Version changes, after the fact, whenever an engine or alias is
// registered: a plan holds the engine its virtual tables resolved to, not
// the name.
func (r *Registry) Version() uint64 { return r.version.Load() }

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{engines: make(map[string]Engine), aliases: make(map[string]string)}
}

// Register adds an engine under its name and any extra aliases
// (e.g. "altavista" with alias "AV").
func (r *Registry) Register(e Engine, aliases ...string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.engines[normalize(e.Name())] = e
	for _, a := range aliases {
		r.aliases[normalize(a)] = normalize(e.Name())
	}
	r.version.Add(1)
}

// Lookup resolves a name or alias to an engine.
func (r *Registry) Lookup(name string) (Engine, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := normalize(name)
	if target, ok := r.aliases[n]; ok {
		n = target
	}
	e, ok := r.engines[n]
	if !ok {
		return nil, fmt.Errorf("unknown search engine %q", name)
	}
	return e, nil
}

// Names returns the registered engine names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.engines))
	for n := range r.engines {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Default returns an arbitrary-but-deterministic engine (the first by
// name); WSQ uses it when a query references the unsuffixed WebCount or
// WebPages tables.
func (r *Registry) Default() (Engine, error) {
	names := r.Names()
	if len(names) == 0 {
		return nil, errors.New("no search engines registered")
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.engines[names[0]], nil
}

func normalize(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		out = append(out, c)
	}
	return string(out)
}
