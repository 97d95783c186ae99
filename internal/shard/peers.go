package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/types"
)

// Wire types of the cache peering protocol (worker.go serves them).
type cacheGetResponse struct {
	Rows []types.Tuple `json:"rows"`
}

type cacheFillRequest struct {
	Key  string        `json:"key"`
	Rows []types.Tuple `json:"rows"`
}

type limitsRequest struct {
	Limits map[string]int `json:"limits"`
}

type membershipRequest struct {
	Workers []Member `json:"workers"`
	VNodes  int      `json:"vnodes"`
}

type drainResponse struct {
	HandedOff int `json:"handed_off"`
}

// PeerOptions tunes a worker's peer client.
type PeerOptions struct {
	// FetchTimeout bounds one ask of a key's home worker (default 2s). It
	// caps the caller's context; a home that has not answered by then
	// counts as one that cannot, and the asker runs the call itself.
	FetchTimeout time.Duration
}

// fillTimeout bounds one drain handoff POST.
const fillTimeout = 2 * time.Second

func (o PeerOptions) withDefaults() PeerOptions {
	if o.FetchTimeout <= 0 {
		o.FetchTimeout = 2 * time.Second
	}
	return o
}

// Peers is a worker's client side of the tier: it implements
// async.CachePeer by resolving each key's home worker on the ring and
// asking that worker to answer the call (GET /shard/cache/get). The pump
// asks only for a miss that no call in its in-flight table covers, so a
// worker has at most one ask per key out at a time and Peers needs no
// coalescing of its own; the home's pump coalesces the askers of every
// worker.
type Peers struct {
	self   string
	opt    PeerOptions
	client *http.Client

	ring   atomic.Pointer[Ring]
	vnodes int

	// counters (atomic; exposed via Observe and Stats)
	fetchHits   atomic.Int64
	fetchMisses atomic.Int64
	fetchErrors atomic.Int64
	selfHome    atomic.Int64
}

// NewPeers builds the peer client for worker self. Close releases its
// idle connections.
func NewPeers(self string, cfg Config, opt PeerOptions) *Peers {
	p := &Peers{
		self:   self,
		opt:    opt.withDefaults(),
		vnodes: cfg.vnodes(),
	}
	p.client = &http.Client{Transport: &http.Transport{
		MaxIdleConns:        32,
		MaxIdleConnsPerHost: 8,
		IdleConnTimeout:     30 * time.Second,
	}}
	p.ring.Store(NewRing(cfg.Workers, p.vnodes))
	return p
}

// Update replaces the membership view (pushed by the coordinator on
// reload or drain) with a ring of vnodes virtual nodes per member, so the
// worker homes keys where the coordinator routes them; 0 keeps the count
// the peer client was built with. Safe concurrently with Fetch.
func (p *Peers) Update(members []Member, vnodes int) {
	if vnodes <= 0 {
		vnodes = p.vnodes
	}
	p.ring.Store(NewRing(members, vnodes))
}

// Ring returns the current membership view.
func (p *Peers) Ring() *Ring { return p.ring.Load() }

// Close releases idle connections.
func (p *Peers) Close() {
	p.client.CloseIdleConnections()
}

// Remote implements async.CachePeer: whether key's home on the current
// ring is another worker.
func (p *Peers) Remote(key string) bool {
	owner, onRing := p.ring.Load().Owner(key)
	return onRing && owner.ID != p.self
}

// Fetch implements async.CachePeer: it asks key's home worker to answer
// the call of the source named src, which the home does through its own
// pump. A key homed on this worker (the ring changed since the pump
// asked Remote) returns a miss at once.
//
// When the calling query is being traced, the get carries a traceparent
// header, the home answers with its handler span (SpanHeader), and Fetch
// returns the round trip as a shard.peer.fetch span with the remote span
// inside it; the pump hangs it under the call that asked.
func (p *Peers) Fetch(ctx context.Context, src, key string) ([]types.Tuple, bool, *obs.Span) {
	owner, onRing := p.ring.Load().Owner(key)
	if !onRing || owner.ID == p.self {
		p.selfHome.Add(1)
		return nil, false, nil
	}
	var start time.Time
	traceparent := ""
	tc := obs.SampledTrace(ctx)
	if tc != nil {
		start = time.Now()
		traceparent = tc.Traceparent()
	}
	rows, ok, remote := p.doFetch(ctx, owner.URL, src, key, traceparent)
	if ok {
		p.fetchHits.Add(1)
	} else {
		p.fetchMisses.Add(1)
	}
	if tc == nil {
		return rows, ok, nil
	}
	sp := &obs.Span{Op: "shard.peer.fetch", Detail: "miss", Start: start, Dur: time.Since(start)}
	if ok {
		sp.Detail = "hit"
		sp.Rows = int64(len(rows))
	}
	// The remote handler ran inside this round trip, so it nests as a
	// synchronous child: the fetch span's self time becomes pure network
	// plus queueing overhead.
	if remote != nil {
		remote.AnchorAt(start)
		sp.AddChild(remote)
	}
	return rows, ok, sp
}

// doFetch performs one ask of a home worker. A non-empty traceparent is
// attached to the request, and any span the home returns in SpanHeader
// is decoded into remote.
func (p *Peers) doFetch(ctx context.Context, base, src, key, traceparent string) (rows []types.Tuple, ok bool, remote *obs.Span) {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := context.WithTimeout(ctx, p.opt.FetchTimeout)
	defer cancel()
	u := base + "/shard/cache/get?key=" + url.QueryEscape(key) + "&src=" + url.QueryEscape(src)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		p.fetchErrors.Add(1)
		return nil, false, nil
	}
	if traceparent != "" {
		req.Header.Set(obs.TraceparentHeader, traceparent)
	}
	resp, err := p.client.Do(req)
	if err != nil {
		p.fetchErrors.Add(1)
		return nil, false, nil
	}
	defer resp.Body.Close()
	if traceparent != "" {
		if h := resp.Header.Get(SpanHeader); h != "" {
			var s obs.Span
			if err := json.Unmarshal([]byte(h), &s); err == nil {
				remote = &s
			}
		}
	}
	if resp.StatusCode != http.StatusOK {
		if resp.StatusCode != http.StatusNotFound {
			p.fetchErrors.Add(1)
		}
		return nil, false, remote
	}
	var out cacheGetResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		p.fetchErrors.Add(1)
		return nil, false, remote
	}
	return out.Rows, true, remote
}

// FillTo pushes one cache entry to a specific member — the drain path's
// hot-key handoff, where the target is chosen from the post-drain ring
// rather than the sender's current view.
func (p *Peers) FillTo(ctx context.Context, m Member, key string, rows []types.Tuple) error {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := context.WithTimeout(ctx, fillTimeout)
	defer cancel()
	body, err := json.Marshal(cacheFillRequest{Key: key, Rows: rows})
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, m.URL+"/shard/cache/fill", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := p.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return fmt.Errorf("fill %s: status %d", m.ID, resp.StatusCode)
	}
	return nil
}

// PeerStats is a point-in-time snapshot of the peering counters.
type PeerStats struct {
	FetchHits   int64 `json:"fetch_hits"`
	FetchMisses int64 `json:"fetch_misses"`
	FetchErrors int64 `json:"fetch_errors"`
	SelfHome    int64 `json:"self_home"`
}

// Stats snapshots the peering counters.
func (p *Peers) Stats() PeerStats {
	return PeerStats{
		FetchHits:   p.fetchHits.Load(),
		FetchMisses: p.fetchMisses.Load(),
		FetchErrors: p.fetchErrors.Load(),
		SelfHome:    p.selfHome.Load(),
	}
}

// Observe registers the peering counters with an obs registry.
func (p *Peers) Observe(reg *obs.Registry) {
	reg.CounterFunc("wsq_shard_peer_fetch_hits_total",
		"Asks of a key's home worker that it answered.",
		func() float64 { return float64(p.fetchHits.Load()) })
	reg.CounterFunc("wsq_shard_peer_fetch_misses_total",
		"Asks of a key's home worker that it did not answer.",
		func() float64 { return float64(p.fetchMisses.Load()) })
	reg.CounterFunc("wsq_shard_peer_fetch_errors_total",
		"Asks of a key's home worker that failed (network, decode, non-404 status).",
		func() float64 { return float64(p.fetchErrors.Load()) })
}
