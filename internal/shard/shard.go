// Package shard turns a set of wsqd processes into one horizontally
// scaled tier — the WSQ analogue of ODYS's massively-parallel DB+IR
// architecture. It supplies the three pieces a multi-node deployment
// needs beyond what a single wsqd provides:
//
//   - A coordinator (coordinator.go) that accepts the existing HTTP/JSON
//     /query API and routes each query to a worker by consistent-hashing
//     its search-expression key over a ring with virtual nodes (ring.go).
//     Routing is membership-driven: a static JSON config file names the
//     workers and is reloadable at runtime (SIGHUP in cmd/wsqd, or POST
//     /admin/reload).
//
//   - Tier-wide result caching and coalescing (peers.go, worker.go):
//     every call key has a home worker on the ring. A worker whose pump
//     misses its local [HN96] cache on a key another worker homes asks
//     that home (GET /shard/cache/get) before it queues for an execution
//     token, and holds none while it waits. The home answers through its
//     own pump: from its cache, by coalescing onto its call in flight, or
//     by running the call once under its own token. So local and remote
//     askers of a key meet in one in-flight table, the home's, and one
//     AltaVista call serves every node. A home that cannot serve answers
//     non-200, and the asker runs the call itself.
//
//   - Operability: per-engine global rate budgets from the config are
//     split across live workers by the coordinator (each worker gets
//     ceil(budget/N) via Pump.SetDestLimit) and re-split on membership
//     change; a draining worker finishes in-flight queries, hands its hot
//     cache keys to their new homes, and answers further queries with a
//     retryable 503 that the coordinator reroutes.
//
// The package is deliberately free of new dependencies: the protocol is
// plain HTTP/JSON over the standard library, metrics ride the existing
// internal/obs registry, and tuples travel as types.Value JSON.
package shard

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/sqlparse"
)

// Member is one wsqd worker in the tier.
type Member struct {
	// ID is the stable ring identity ("w1"). Hashing uses the ID, so a
	// worker can move to a new address without remapping its keys.
	ID string `json:"id"`
	// URL is the worker's base HTTP address ("http://10.0.0.5:8080").
	URL string `json:"url"`
}

// Config is the tier's static membership file, read by both the
// coordinator and the workers (and re-read on SIGHUP).
type Config struct {
	// Workers lists the tier members.
	Workers []Member `json:"workers"`
	// VNodes is the number of virtual nodes per worker on the hash ring
	// (0 selects DefaultVNodes). More virtual nodes smooth the key
	// distribution at the cost of a larger ring.
	VNodes int `json:"vnodes,omitempty"`
	// Budgets maps engine destinations ("altavista") to the tier-wide
	// concurrent-call budget. The coordinator divides each budget across
	// live workers and re-divides on membership change.
	Budgets map[string]int `json:"budgets,omitempty"`
}

// DefaultVNodes is the per-member virtual-node count when the config
// does not choose one.
const DefaultVNodes = 64

// Validate checks structural invariants: at least one worker, unique
// non-empty IDs, non-empty URLs.
func (c Config) Validate() error {
	if len(c.Workers) == 0 {
		return fmt.Errorf("shard config: no workers")
	}
	seen := make(map[string]bool, len(c.Workers))
	for _, w := range c.Workers {
		if w.ID == "" || w.URL == "" {
			return fmt.Errorf("shard config: worker needs both id and url (got id=%q url=%q)", w.ID, w.URL)
		}
		if seen[w.ID] {
			return fmt.Errorf("shard config: duplicate worker id %q", w.ID)
		}
		seen[w.ID] = true
	}
	for dest, n := range c.Budgets {
		if n <= 0 {
			return fmt.Errorf("shard config: budget for %q must be positive (got %d)", dest, n)
		}
	}
	return nil
}

// vnodes returns the effective virtual-node count.
func (c Config) vnodes() int {
	if c.VNodes > 0 {
		return c.VNodes
	}
	return DefaultVNodes
}

// Member returns the worker with the given id.
func (c Config) Member(id string) (Member, bool) {
	for _, w := range c.Workers {
		if w.ID == id {
			return w, true
		}
	}
	return Member{}, false
}

// LoadConfig reads and validates a tier config file.
func LoadConfig(path string) (Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Config{}, fmt.Errorf("shard config: %w", err)
	}
	var cfg Config
	if err := json.Unmarshal(data, &cfg); err != nil {
		return Config{}, fmt.Errorf("shard config %s: %w", path, err)
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// SplitBudget divides a tier-wide budget across n workers, rounding up so
// the tier never starves: ceil(budget/n), minimum 1.
func SplitBudget(budget, n int) int {
	if n <= 0 {
		return budget
	}
	per := (budget + n - 1) / n
	if per < 1 {
		per = 1
	}
	return per
}

// RouteKey derives the consistent-hashing key for a query. The goal is
// cache affinity: queries issuing the same external calls should land on
// the same worker, so the paper's [HN96] cache and the pump's in-flight
// coalescing see them together.
//
// The search expressions of a WSQ query live in its string literals
// (`WHERE T2 = 'crime'` binds the WebCount expression), so the key is the
// sorted set of string literals; a query without literals (pure
// table-driven bindings) falls back to its whitespace-normalized text, so
// identical statements still route identically.
func RouteKey(sql string) string {
	toks, err := sqlparse.Tokenize(sql)
	if err == nil {
		var lits []string
		for _, tk := range toks {
			if tk.Kind == sqlparse.TokString {
				lits = append(lits, tk.Text)
			}
		}
		if len(lits) > 0 {
			sort.Strings(lits)
			return "lit:" + strings.Join(lits, "\x00")
		}
	}
	return "sql:" + strings.Join(strings.Fields(strings.ToLower(sql)), " ")
}
