// Package profile is the durable view of engine behavior: the request
// pump's live per-destination records (latency, failures, retries, cache
// and peer hits) merged with the history loaded from disk, snapshotted
// back to disk, and exported at /profiles. It counts nothing about
// calls itself — the pump's destination table is the one record — and
// accumulates only the query-level observations (fanout, end-to-end
// latency) the pump cannot see.
//
// It exists for the planner. The paper's cost asymmetry — an external
// web call costs seconds while a local operator costs microseconds —
// means plan choice is dominated by how many external calls a plan
// issues and how slow each destination actually is. Snapshot().Derive()
// is the read surface a latency-aware cost-based planner consumes:
// observed quantiles, fanout, cache hit rates, and failure rates per
// destination, persistent across restarts so a freshly started wsqd
// prices plans from history rather than from nothing.
package profile

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Profile is one destination's derived profile — the planner-facing
// view. Latency fields are seconds.
type Profile struct {
	Dest      string  `json:"dest"`
	Calls     int64   `json:"calls"`
	Failures  int64   `json:"failures"`
	Retries   int64   `json:"retries"`
	Hedges    int64   `json:"hedges"`
	Timeouts  int64   `json:"timeouts"`
	CacheHits int64   `json:"cache_hits"`
	PeerHits  int64   `json:"peer_hits"`
	EWMA      float64 `json:"ewma_seconds"`
	P50       float64 `json:"p50_seconds"`
	P95       float64 `json:"p95_seconds"`
	P99       float64 `json:"p99_seconds"`
	// CacheHitRate is hits / (hits + issued calls): the fraction of
	// logical lookups the cache absorbed.
	CacheHitRate float64 `json:"cache_hit_rate"`
	FailureRate  float64 `json:"failure_rate"`
	RetryRate    float64 `json:"retry_rate"`
}

// QueryProfile is the query-level derived profile: how many external
// calls a query fans out to and how long queries take end to end.
type QueryProfile struct {
	Queries   int64   `json:"queries"`
	FanoutP50 float64 `json:"fanout_p50"`
	FanoutP95 float64 `json:"fanout_p95"`
	MeanFan   float64 `json:"fanout_mean"`
	P50       float64 `json:"p50_seconds"`
	P95       float64 `json:"p95_seconds"`
	P99       float64 `json:"p99_seconds"`
}

// fanoutBuckets sizes the external-calls-per-query histogram: fanout is
// a small integer (the paper's Table 1 queries register tens of calls).
var fanoutBuckets = []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// Store is the profile view: the pump's live destination records plus an
// optional base snapshot loaded from disk (Load), so history survives a
// restart, plus the query-level histograms it accumulates itself. All
// methods are safe for concurrent use.
type Store struct {
	node string
	// live returns a fresh map of the pump's per-destination records
	// (async.Pump.DestProfiles); every Snapshot reads it anew.
	live func() map[string]*DestSnapshot

	mu   sync.RWMutex
	base *Snapshot // loaded history, nil when starting fresh

	queries    atomic.Int64
	fanoutHist *obs.Histogram
	queryHist  *obs.Histogram
}

// NewStore creates a store over live, the source of per-destination call
// records. node names the producing process in snapshots and /profiles
// output ("coord", "w1", or "" standalone).
func NewStore(node string, live func() map[string]*DestSnapshot) *Store {
	return &Store{
		node:       node,
		live:       live,
		fanoutHist: obs.NewHistogram(fanoutBuckets),
		queryHist:  obs.NewHistogram(nil),
	}
}

// Node returns the store's node name.
func (s *Store) Node() string { return s.node }

// QueryObserved records one completed query: its end-to-end latency and
// how many external calls it issued (fanout).
func (s *Store) QueryObserved(d time.Duration, externalCalls int) {
	if s == nil {
		return
	}
	s.queries.Add(1)
	s.queryHist.ObserveDuration(d)
	s.fanoutHist.Observe(float64(externalCalls))
}

func deriveProfile(dest string, ds *DestSnapshot) Profile {
	p := Profile{
		Dest:      dest,
		Calls:     ds.Calls,
		Failures:  ds.Failures,
		Retries:   ds.Retries,
		Hedges:    ds.Hedges,
		Timeouts:  ds.Timeouts,
		CacheHits: ds.CacheHits,
		PeerHits:  ds.PeerHits,
		EWMA:      ds.EWMA,
	}
	hs := ds.histSnapshot()
	if hs.Count > 0 {
		p.P50 = hs.Quantile(0.50)
		p.P95 = hs.Quantile(0.95)
		p.P99 = hs.Quantile(0.99)
	}
	hits := ds.CacheHits + ds.PeerHits
	if n := hits + ds.Calls; n > 0 {
		p.CacheHitRate = float64(hits) / float64(n)
	}
	if ds.Calls > 0 {
		p.FailureRate = float64(ds.Failures) / float64(ds.Calls)
		p.RetryRate = float64(ds.Retries) / float64(ds.Calls)
	}
	return p
}

func deriveQuery(qs *QuerySnapshot) QueryProfile {
	q := QueryProfile{Queries: qs.Queries}
	fh := snapToHist(qs.Fanout)
	if fh.Count > 0 {
		q.FanoutP50 = fh.Quantile(0.50)
		q.FanoutP95 = fh.Quantile(0.95)
		q.MeanFan = fh.Sum / float64(fh.Count)
	}
	lh := snapToHist(qs.Latency)
	if lh.Count > 0 {
		q.P50 = lh.Quantile(0.50)
		q.P95 = lh.Quantile(0.95)
		q.P99 = lh.Quantile(0.99)
	}
	return q
}
