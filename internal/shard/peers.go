package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"sync"
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

// PeerOptions tunes a worker's peer-cache client.
type PeerOptions struct {
	// FetchTimeout bounds one remote cache get (default 2s). It caps the
	// caller's context; peering must never cost more than an engine call.
	FetchTimeout time.Duration
	// FillTimeout bounds one background fill POST (default 2s).
	FillTimeout time.Duration
	// WaitMS is sent with every remote get: how long the home shard may
	// hold the request open for an in-progress fill of the same key
	// before answering "miss" (default 150ms). This is what lets one
	// engine call on any node serve simultaneous misses on every node.
	WaitMS int
	// QueueDepth bounds the asynchronous fill queue (default 256). When
	// full, fills are dropped and counted — losing a cache offer is
	// always safe.
	QueueDepth int
}

func (o PeerOptions) withDefaults() PeerOptions {
	if o.FetchTimeout <= 0 {
		o.FetchTimeout = 2 * time.Second
	}
	if o.FillTimeout <= 0 {
		o.FillTimeout = 2 * time.Second
	}
	if o.WaitMS <= 0 {
		o.WaitMS = 150
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 256
	}
	return o
}

// Peers is a worker's client side of the tier cache: it implements
// async.CachePeer by resolving each key's home shard on the ring and
// speaking the get/fill HTTP protocol to it. Fetch is reached only from
// the one execution per key the pump's in-flight table admits (peering
// needs a cache, and a cache turns coalescing on), so it needs no
// coalescing of its own; fills are queued and shipped by a background
// sender so the pump never blocks on peering.
type Peers struct {
	self   string
	opt    PeerOptions
	client *http.Client

	ring   atomic.Pointer[Ring]
	vnodes int

	fillq chan cacheFillRequest
	stop  chan struct{}
	wg    sync.WaitGroup
	once  sync.Once

	// counters (atomic; exposed via Observe and Stats)
	fetchHits   atomic.Int64
	fetchMisses atomic.Int64
	fetchErrors atomic.Int64
	selfHome    atomic.Int64
	fillsSent   atomic.Int64
	fillErrors  atomic.Int64
	fillDrops   atomic.Int64
}

// NewPeers builds the peer client for worker self and starts its fill
// sender. Callers must Close it to stop the sender.
func NewPeers(self string, cfg Config, opt PeerOptions) *Peers {
	p := &Peers{
		self:   self,
		opt:    opt.withDefaults(),
		vnodes: cfg.vnodes(),
		stop:   make(chan struct{}),
	}
	p.fillq = make(chan cacheFillRequest, p.opt.QueueDepth)
	p.client = &http.Client{Transport: &http.Transport{
		MaxIdleConns:        32,
		MaxIdleConnsPerHost: 8,
		IdleConnTimeout:     30 * time.Second,
	}}
	p.ring.Store(NewRing(cfg.Workers, p.vnodes))
	p.wg.Add(1)
	go p.runFills()
	return p
}

// Update replaces the membership view (pushed by the coordinator on
// reload or drain). Safe concurrently with Fetch/Fill.
func (p *Peers) Update(members []Member) {
	p.ring.Store(NewRing(members, p.vnodes))
}

// Ring returns the current membership view.
func (p *Peers) Ring() *Ring { return p.ring.Load() }

// Close stops the fill sender and releases idle connections.
func (p *Peers) Close() {
	p.once.Do(func() { close(p.stop) })
	p.wg.Wait()
	p.client.CloseIdleConnections()
}

// Fetch implements async.CachePeer: on a local cache miss the pump asks
// the key's home shard before spending an engine call. A key homed on
// this worker returns a miss immediately — the local cache was already
// consulted, and the pump's own coalescing covers in-process duplicates.
func (p *Peers) Fetch(ctx context.Context, key string) ([]types.Tuple, bool) {
	owner, onRing := p.ring.Load().Owner(key)
	if !onRing || owner.ID == p.self {
		p.selfHome.Add(1)
		return nil, false
	}
	rows, ok := p.fetchFrom(ctx, owner.URL, key)
	if ok {
		p.fetchHits.Add(1)
	} else {
		p.fetchMisses.Add(1)
	}
	return rows, ok
}

// fetchFrom performs one remote cache get against a home shard. When the
// calling query is being traced, the get carries a traceparent header,
// the home shard answers with its handler span (SpanHeader), and the
// whole round trip — local wrapper plus remote child — is handed to the
// trace context for the query root to adopt. (Fills stay untraced: they
// are fire-and-forget background offers with no query to attribute them
// to by the time the sender drains its queue.)
func (p *Peers) fetchFrom(ctx context.Context, base, key string) ([]types.Tuple, bool) {
	tc := obs.SampledTrace(ctx)
	if tc == nil {
		rows, ok, _ := p.doFetch(ctx, base, key, "")
		return rows, ok
	}
	start := time.Now()
	rows, ok, remoteSpan := p.doFetch(ctx, base, key, tc.Traceparent(""))
	sp := &obs.Span{Op: "shard.peer.fetch", Start: start, Dur: time.Since(start)}
	if ok {
		sp.Detail = "hit"
		sp.Rows = int64(len(rows))
	} else {
		sp.Detail = "miss"
	}
	// The remote handler ran inside this round trip, so it nests as a
	// synchronous child: the fetch span's self time becomes pure network
	// plus queueing overhead.
	if remoteSpan != nil {
		sp.AddChild(obs.SpanFromJSON(remoteSpan, start))
	}
	tc.AddRemote(sp)
	return rows, ok
}

// doFetch is the wire half of fetchFrom. A non-empty traceparent is
// attached to the request, and any span the home shard returns in
// SpanHeader is parsed into remoteSpan.
func (p *Peers) doFetch(ctx context.Context, base, key, traceparent string) (rows []types.Tuple, ok bool, remoteSpan *obs.SpanJSON) {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := context.WithTimeout(ctx, p.opt.FetchTimeout)
	defer cancel()
	u := base + "/shard/cache/get?key=" + url.QueryEscape(key) +
		"&wait_ms=" + strconv.Itoa(p.opt.WaitMS)
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
			var sj obs.SpanJSON
			if err := json.Unmarshal([]byte(h), &sj); err == nil {
				remoteSpan = &sj
			}
		}
	}
	if resp.StatusCode != http.StatusOK {
		if resp.StatusCode != http.StatusNotFound {
			p.fetchErrors.Add(1)
		}
		return nil, false, remoteSpan
	}
	var out cacheGetResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		p.fetchErrors.Add(1)
		return nil, false, remoteSpan
	}
	return out.Rows, true, remoteSpan
}

// Fill implements async.CachePeer: after computing rows locally, offer
// them to the key's home shard. Never blocks — the offer is queued for
// the background sender, and dropped (counted) if the queue is full.
func (p *Peers) Fill(key string, rows []types.Tuple) {
	owner, onRing := p.ring.Load().Owner(key)
	if !onRing || owner.ID == p.self {
		return // we are home; the pump already stored it locally
	}
	select {
	case p.fillq <- cacheFillRequest{Key: key, Rows: rows}:
	default:
		p.fillDrops.Add(1)
	}
}

// runFills drains the fill queue, resolving each key's current home at
// send time so fills follow membership changes.
func (p *Peers) runFills() {
	defer p.wg.Done()
	for {
		select {
		case <-p.stop:
			return
		case it := <-p.fillq:
			owner, onRing := p.ring.Load().Owner(it.Key)
			if !onRing || owner.ID == p.self {
				continue
			}
			if err := p.sendFill(nil, owner.URL, it); err != nil {
				p.fillErrors.Add(1)
			} else {
				p.fillsSent.Add(1)
			}
		}
	}
}

// FillTo pushes one cache entry to a specific member — the drain path's
// hot-key handoff, where the target is chosen from the post-drain ring
// rather than the sender's current view.
func (p *Peers) FillTo(ctx context.Context, m Member, key string, rows []types.Tuple) error {
	return p.sendFill(ctx, m.URL, cacheFillRequest{Key: key, Rows: rows})
}

func (p *Peers) sendFill(ctx context.Context, base string, fill cacheFillRequest) error {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := context.WithTimeout(ctx, p.opt.FillTimeout)
	defer cancel()
	body, err := json.Marshal(fill)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/shard/cache/fill", bytes.NewReader(body))
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
		return fmt.Errorf("fill %s: status %d", base, resp.StatusCode)
	}
	return nil
}

// PeerStats is a point-in-time snapshot of the peering counters.
type PeerStats struct {
	FetchHits   int64 `json:"fetch_hits"`
	FetchMisses int64 `json:"fetch_misses"`
	FetchErrors int64 `json:"fetch_errors"`
	SelfHome    int64 `json:"self_home"`
	FillsSent   int64 `json:"fills_sent"`
	FillErrors  int64 `json:"fill_errors"`
	FillDrops   int64 `json:"fill_drops"`
}

// Stats snapshots the peering counters.
func (p *Peers) Stats() PeerStats {
	return PeerStats{
		FetchHits:   p.fetchHits.Load(),
		FetchMisses: p.fetchMisses.Load(),
		FetchErrors: p.fetchErrors.Load(),
		SelfHome:    p.selfHome.Load(),
		FillsSent:   p.fillsSent.Load(),
		FillErrors:  p.fillErrors.Load(),
		FillDrops:   p.fillDrops.Load(),
	}
}

// Observe registers the peering counters with an obs registry.
func (p *Peers) Observe(reg *obs.Registry) {
	reg.CounterFunc("wsq_shard_peer_fetch_hits_total",
		"Remote cache gets answered by a key's home shard.",
		func() float64 { return float64(p.fetchHits.Load()) })
	reg.CounterFunc("wsq_shard_peer_fetch_misses_total",
		"Remote cache gets that missed at the home shard.",
		func() float64 { return float64(p.fetchMisses.Load()) })
	reg.CounterFunc("wsq_shard_peer_fetch_errors_total",
		"Remote cache gets that failed (network, decode, non-404 status).",
		func() float64 { return float64(p.fetchErrors.Load()) })
	reg.CounterFunc("wsq_shard_peer_fills_sent_total",
		"Locally computed results offered to their home shard.",
		func() float64 { return float64(p.fillsSent.Load()) })
	reg.CounterFunc("wsq_shard_peer_fill_drops_total",
		"Cache offers dropped because the fill queue was full.",
		func() float64 { return float64(p.fillDrops.Load()) })
}
