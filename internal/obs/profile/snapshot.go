package profile

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// SnapshotVersion guards the on-disk schema; a version mismatch loads
// as empty rather than misreading old data.
const SnapshotVersion = 1

// HistSnap is the serializable form of an obs.HistSnapshot: per-bucket
// (not cumulative) counts with one trailing +Inf entry.
type HistSnap struct {
	Bounds []float64 `json:"bounds,omitempty"`
	Counts []int64   `json:"counts,omitempty"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// NewHistSnap converts a live histogram snapshot to its serializable form.
func NewHistSnap(s obs.HistSnapshot) HistSnap {
	return HistSnap{Bounds: s.Bounds, Counts: s.Counts, Count: s.Count, Sum: s.Sum}
}

func snapToHist(h HistSnap) obs.HistSnapshot {
	return obs.HistSnapshot{Bounds: h.Bounds, Counts: h.Counts, Count: h.Count, Sum: h.Sum}
}

// mergeHist adds two histogram sketches. Matching bucket layouts merge
// elementwise; mismatched layouts keep the sketch with more
// observations (quantiles stay approximately right, counts stay exact
// via Count/Sum which always add).
func mergeHist(a, b HistSnap) HistSnap {
	if b.Count == 0 && len(b.Counts) == 0 {
		return a
	}
	if a.Count == 0 && len(a.Counts) == 0 {
		return b
	}
	out := HistSnap{Count: a.Count + b.Count, Sum: a.Sum + b.Sum}
	if sameBounds(a.Bounds, b.Bounds) && len(a.Counts) == len(b.Counts) {
		out.Bounds = a.Bounds
		out.Counts = make([]int64, len(a.Counts))
		for i := range a.Counts {
			out.Counts[i] = a.Counts[i] + b.Counts[i]
		}
		return out
	}
	if a.Count >= b.Count {
		out.Bounds, out.Counts = a.Bounds, a.Counts
	} else {
		out.Bounds, out.Counts = b.Bounds, b.Counts
	}
	return out
}

func sameBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// DestSnapshot is one destination's serialized profile.
type DestSnapshot struct {
	Calls     int64    `json:"calls"`
	Failures  int64    `json:"failures,omitempty"`
	Retries   int64    `json:"retries,omitempty"`
	Hedges    int64    `json:"hedges,omitempty"`
	Timeouts  int64    `json:"timeouts,omitempty"`
	CacheHits int64    `json:"cache_hits,omitempty"`
	PeerHits  int64    `json:"peer_hits,omitempty"`
	EWMA      float64  `json:"ewma_seconds,omitempty"`
	Latency   HistSnap `json:"latency"`
}

func (ds *DestSnapshot) histSnapshot() obs.HistSnapshot { return snapToHist(ds.Latency) }

// QuerySnapshot is the serialized query-level profile.
type QuerySnapshot struct {
	Queries int64    `json:"queries"`
	Fanout  HistSnap `json:"fanout"`
	Latency HistSnap `json:"latency"`
}

// Snapshot is the complete serialized store: the on-disk format, the
// /profiles?format=snapshot payload, and the unit the coordinator
// merges tier-wide.
type Snapshot struct {
	Version int                      `json:"version"`
	Node    string                   `json:"node,omitempty"`
	SavedAt time.Time                `json:"saved_at,omitempty"`
	Dests   map[string]*DestSnapshot `json:"dests"`
	Query   *QuerySnapshot           `json:"query,omitempty"`
}

func (s *Store) snapshotQuery() *QuerySnapshot {
	return &QuerySnapshot{
		Queries: s.queries.Load(),
		Fanout:  NewHistSnap(s.fanoutHist.Snapshot()),
		Latency: NewHistSnap(s.queryHist.Snapshot()),
	}
}

// mergeDest adds b into a copy of a (either may be nil).
func mergeDest(a, b *DestSnapshot) *DestSnapshot {
	if b == nil {
		if a == nil {
			return &DestSnapshot{}
		}
		return a
	}
	if a == nil {
		return b
	}
	out := &DestSnapshot{
		Calls:     a.Calls + b.Calls,
		Failures:  a.Failures + b.Failures,
		Retries:   a.Retries + b.Retries,
		Hedges:    a.Hedges + b.Hedges,
		Timeouts:  a.Timeouts + b.Timeouts,
		CacheHits: a.CacheHits + b.CacheHits,
		PeerHits:  a.PeerHits + b.PeerHits,
		Latency:   mergeHist(a.Latency, b.Latency),
	}
	// Call-weighted EWMA blend: a snapshot with 10x the traffic should
	// dominate the merged estimate.
	switch {
	case a.EWMA == 0:
		out.EWMA = b.EWMA
	case b.EWMA == 0:
		out.EWMA = a.EWMA
	default:
		wa, wb := float64(a.Calls), float64(b.Calls)
		if wa+wb == 0 {
			wa, wb = 1, 1
		}
		out.EWMA = (a.EWMA*wa + b.EWMA*wb) / (wa + wb)
	}
	return out
}

func mergeQuery(a, b *QuerySnapshot) *QuerySnapshot {
	if b == nil {
		if a == nil {
			return &QuerySnapshot{}
		}
		return a
	}
	if a == nil {
		return b
	}
	return &QuerySnapshot{
		Queries: a.Queries + b.Queries,
		Fanout:  mergeHist(a.Fanout, b.Fanout),
		Latency: mergeHist(a.Latency, b.Latency),
	}
}

// Snapshot serializes the full view: the pump's live records merged with
// any loaded base, so a snapshot taken after a restart carries the whole
// history forward.
func (s *Store) Snapshot() *Snapshot {
	s.mu.RLock()
	base := s.base
	s.mu.RUnlock()

	out := &Snapshot{
		Version: SnapshotVersion,
		Node:    s.node,
		SavedAt: time.Now().UTC(),
		Dests:   s.live(),
	}
	var baseQuery *QuerySnapshot
	if base != nil {
		baseQuery = base.Query
		for name, ds := range base.Dests {
			out.Dests[name] = mergeDest(out.Dests[name], ds)
		}
	}
	out.Query = mergeQuery(s.snapshotQuery(), baseQuery)
	return out
}

// MergeSnapshots combines snapshots from multiple nodes into one
// tier-wide view (the coordinator's /profiles).
func MergeSnapshots(node string, snaps ...*Snapshot) *Snapshot {
	out := &Snapshot{
		Version: SnapshotVersion,
		Node:    node,
		SavedAt: time.Now().UTC(),
		Dests:   make(map[string]*DestSnapshot),
	}
	for _, sn := range snaps {
		if sn == nil {
			continue
		}
		for name, ds := range sn.Dests {
			out.Dests[name] = mergeDest(out.Dests[name], ds)
		}
		out.Query = mergeQuery(out.Query, sn.Query)
	}
	if out.Query == nil {
		out.Query = &QuerySnapshot{}
	}
	return out
}

// Derive converts a snapshot to planner-facing profiles, sorted by
// destination.
func (sn *Snapshot) Derive() ([]Profile, QueryProfile) {
	names := make([]string, 0, len(sn.Dests))
	for name := range sn.Dests {
		names = append(names, name)
	}
	sort.Strings(names)
	profiles := make([]Profile, 0, len(names))
	for _, name := range names {
		profiles = append(profiles, deriveProfile(name, sn.Dests[name]))
	}
	q := QueryProfile{}
	if sn.Query != nil {
		q = deriveQuery(sn.Query)
	}
	return profiles, q
}

// ---------------------------------------------------------------------------
// Durability

// Save writes the store's snapshot to path atomically (temp file +
// rename), so a crash mid-write leaves either the old snapshot or the
// new one, never a torn file.
func (s *Store) Save(path string) error {
	sn := s.Snapshot()
	data, err := json.MarshalIndent(sn, "", "  ")
	if err != nil {
		return fmt.Errorf("profile: marshal snapshot: %w", err)
	}
	data = append(data, '\n')
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".profile-*.json")
	if err != nil {
		return fmt.Errorf("profile: save: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("profile: save: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("profile: save: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("profile: save: %w", err)
	}
	return nil
}

// Load reads a snapshot from path and installs it as the store's base:
// derived profiles and future snapshots include it. Missing, truncated,
// corrupt, or version-mismatched files load as an empty base and return
// a non-nil error for logging — Load never leaves the store unusable,
// so startup proceeds regardless.
func (s *Store) Load(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil // first start: nothing to load
		}
		return fmt.Errorf("profile: load %s: %w", path, err)
	}
	var sn Snapshot
	if err := json.Unmarshal(data, &sn); err != nil {
		return fmt.Errorf("profile: load %s: corrupt snapshot ignored: %w", path, err)
	}
	if sn.Version != SnapshotVersion {
		return fmt.Errorf("profile: load %s: version %d != %d, ignored", path, sn.Version, SnapshotVersion)
	}
	if sn.Dests == nil {
		sn.Dests = make(map[string]*DestSnapshot)
	}
	s.mu.Lock()
	s.base = &sn
	s.mu.Unlock()
	return nil
}

// StartSnapshots saves the store to path every interval until ctx is
// done, then takes one final snapshot — the graceful-shutdown flush.
// The returned WaitGroup lets the caller block until that final save
// completes. onErr (optional) receives save failures.
func (s *Store) StartSnapshots(ctx context.Context, path string, interval time.Duration, onErr func(error)) *sync.WaitGroup {
	var wg sync.WaitGroup
	if path == "" {
		return &wg
	}
	if interval <= 0 {
		interval = time.Minute
	}
	report := func(err error) {
		if err != nil && onErr != nil {
			onErr(err)
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				report(s.Save(path))
				return
			case <-tick.C:
				report(s.Save(path))
			}
		}
	}()
	return &wg
}
