// Package async implements asynchronous iteration (Section 4 of the
// WSQ/DSQ paper): the ReqPump global request manager, the AEVScan
// asynchronous virtual-table scan, the ReqSync synchronization operator,
// and the plan-rewriting algorithm (ReqSync Insertion, Percolation, and
// Consolidation) that converts a conventional sequential query plan into
// one that overlaps many external calls.
package async

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/types"
)

// ErrPumpClosed is returned (wrapped) by pump operations that find the
// pump shut down while calls are still pending. Waiters must treat it as
// a terminal error for their query, not a panic: a server closes the pump
// only on shutdown, and queries draining at that moment fail cleanly.
var ErrPumpClosed = errors.New("request pump closed")

// CallResult is a completed external call's outcome, parked in the pump's
// result table (the paper's ReqPumpHash) until the owning ReqSync consumes
// it.
type CallResult struct {
	Rows []types.Tuple
	Err  error
}

// Pump is the ReqPump of Section 4.1: "a module that issues asynchronous
// network requests and stores the responses to each request as they
// return". Concurrency is bounded globally and per destination ("we need
// only add one counter to monitor the total number of active requests, and
// one counter for each external destination"); calls that cannot start
// immediately wait on a FIFO queue.
//
// The paper implements ReqPump as an event-driven loop in the style of the
// Flash web server [PDZ99] because 1999-era threads were expensive. In Go
// the idiomatic equivalent of cheap asynchronous I/O is a bounded set of
// goroutines, which is what this implementation uses; the interface —
// register, poll, await — is the paper's.
//
// One pump is shared by every query of a DB, including the many concurrent
// queries of a wsqd server: the limits are global resource-control knobs,
// so competing queries divide the same call budget exactly as Section 4.1
// envisions for a multi-user system.
type Pump struct {
	mu   sync.Mutex
	cond *sync.Cond

	maxTotal int
	maxDest  int

	nextID      types.CallID
	activeTotal int
	queue       []*call
	// calls is the call table (the paper's ReqPumpHash): one record per
	// registered call, held from RegisterCtx until its owner Takes or
	// Discards it.
	calls map[types.CallID]*call
	// dests is the destination table: one record per external destination
	// carrying its limit, in-flight count and every event counter (see
	// destination). Records are added under p.mu by replacing the map, so
	// Stats, DestActive and metric scrapes read it without the lock.
	dests atomic.Pointer[map[string]*destination]
	cache exec.ResultCache
	// inflight coalesces duplicate in-flight calls: every call registered
	// for a key while its first execution is still queued or running
	// shares that one execution. Only enabled together with the result
	// cache ([HN96]) — the Figure 7 hazard registers |R| identical calls
	// back to back, before the first completes, so a cache alone never
	// helps. The list holds the calls still waiting on the execution; it
	// may drain to empty (every owner gone) while the key stays present.
	inflight map[string][]*call
	// peer, when attached, extends the result cache across a wsqd tier
	// (internal/shard): a local miss consults the key's home shard before
	// calling the engine, and locally executed results are offered back to
	// the home shard. Read lock-free on the call path.
	peer atomic.Pointer[cachePeerBox]

	// policy governs retries, per-attempt deadlines, and hedging for every
	// call execution (SetRetryPolicy). Stored normalized and replaced, never
	// mutated, so executions read it without the lock.
	policy atomic.Pointer[RetryPolicy]
	// backoffRng drives retry-backoff jitter: a locked, seeded stream
	// (many workers back off at once) shared with the latency/fault
	// simulators' reproducibility contract.
	backoffRng *search.Rand

	// slotWait is the time calls spend waiting for an execution token:
	// queue wait before first dispatch, and slot re-acquisition before a
	// retry. This is the admission-control delay of Section 4.1's
	// counters — high values mean the limits, not the engines, bound
	// throughput.
	slotWait *obs.Histogram
	// maxActive is the peak of activeTotal since the last ResetStats.
	maxActive atomic.Int64
	closed    bool

	// execWG tracks every goroutine that is (or may still be) inside an
	// engine call: the run() workers and the timeout/hedge executions
	// attemptOnce launches. Engine calls are uninterruptible, so these
	// goroutines cannot observe cancellation — instead they register
	// here, and Quiesce waits for the stragglers to let go.
	execWG sync.WaitGroup
}

// callState is where a held call is in its life.
type callState uint8

const (
	// callPending: running, or coalesced onto another call's execution.
	callPending callState = iota
	// callQueued: in p.queue, waiting for an execution token.
	callQueued
	// callDone: result parked, awaiting Take.
	callDone
)

// call is the pump's one record of a registered call: what to run, for
// whom, and — once settled — its result. The record sits in p.calls
// while an owner may still Take it; a Discard removes it at once, and an
// execution already under way then completes into the void.
type call struct {
	id       types.CallID
	ctx      context.Context
	dest     *destination
	key      string
	enqueued time.Time
	// fn performs the call. A scan's registration leaves it to execute to
	// ask src for, so a call that never runs here never builds one.
	fn  func() ([]types.Tuple, error)
	src exec.ExternalSource
	// trace is the call's lifecycle record when the registering query is
	// sampled; nil otherwise (CallTrace's recording methods are nil-safe).
	trace *CallTrace

	state callState  // guarded by p.mu
	res   CallResult // guarded by p.mu; valid once state is callDone
}

// event indexes a destination's counters: everything the pump counts
// about a call happens at one site as dest.count(event), and Stats and
// /metrics are both sums or copies of these.
type event uint8

const (
	evRegistered event = iota
	evStarted
	evCompleted
	evCacheHit
	evPeerHit
	evCoalesced
	evCanceled
	evRetry
	evHedge
	evHedgeWin
	evTimeout
	// evFailed: a call's final outcome, after retries, was an error.
	evFailed
	numEvents
)

// SyncDest is the destination record that CallWithRetry's events are
// counted under: the synchronous path's signature carries no destination.
// No engine uses the name.
const SyncDest = "sync"

// destination is the pump's one record per external destination — the
// paper's "one counter for each external destination" grown to carry
// everything known about it. Token accounting stays under p.mu: limit is
// guarded by it and active is only written under it. Everything else is
// written with atomics wherever the event happens, and all but limit may
// be read without the lock.
type destination struct {
	// limit is the in-flight bound: the pump's maxDest until SetDestLimit
	// overrides it ("an administrator can configure each counter as
	// desired", Section 4.1).
	limit  int
	active atomic.Int64
	n      [numEvents]atomic.Int64
	// latency is the wall time of every physical engine execution (first
	// attempts, retries, and hedges alike).
	latency *obs.Histogram
}

func (d *destination) count(e event) { d.n[e].Add(1) }

// dest resolves a destination's record, creating it on first sight.
func (p *Pump) dest(name string) *destination {
	if d := (*p.dests.Load())[name]; d != nil {
		return d
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.destLocked(name)
}

// destLocked is dest for callers that hold p.mu.
func (p *Pump) destLocked(name string) *destination {
	old := *p.dests.Load()
	if d := old[name]; d != nil {
		return d
	}
	d := &destination{limit: p.maxDest, latency: obs.NewHistogram(nil)}
	next := make(map[string]*destination, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[name] = d
	p.dests.Store(&next)
	return d
}

// DefaultMaxTotal bounds total in-flight calls when no limit is given.
const DefaultMaxTotal = 64

// DefaultMaxPerDest bounds per-destination in-flight calls when no limit
// is given.
const DefaultMaxPerDest = 32

// NewPump creates a pump with the given limits (zero selects defaults).
// cache, when non-nil, memoizes results by call key: cached calls complete
// instantly without consuming a network slot ([HN96]).
func NewPump(maxTotal, maxPerDest int, cache exec.ResultCache) *Pump {
	if maxTotal <= 0 {
		maxTotal = DefaultMaxTotal
	}
	if maxPerDest <= 0 {
		maxPerDest = DefaultMaxPerDest
	}
	p := &Pump{
		maxTotal:   maxTotal,
		maxDest:    maxPerDest,
		calls:      make(map[types.CallID]*call),
		cache:      cache,
		inflight:   make(map[string][]*call),
		backoffRng: search.NewRand(1),
		slotWait:   obs.NewHistogram(nil),
	}
	p.dests.Store(&map[string]*destination{})
	p.SetRetryPolicy(RetryPolicy{})
	p.cond = sync.NewCond(&p.mu)
	return p
}

// CachePeer extends the per-process result cache across a tier of wsqd
// workers (implemented by shard.Peers). The pump consults it between the
// local cache and the engine: a call that misses locally first asks the
// key's home shard, and an engine result executed here is offered back to
// the home shard so one engine call can serve every node.
type CachePeer interface {
	// Fetch asks the key's home shard for cached rows. A false return
	// means "not available" for any reason (self-owned key, remote miss,
	// peer unreachable) — the caller falls through to the engine.
	Fetch(ctx context.Context, key string) ([]types.Tuple, bool)
	// Fill offers freshly computed rows to the key's home shard. It must
	// not block: implementations enqueue and deliver asynchronously.
	Fill(key string, rows []types.Tuple)
}

// cachePeerBox wraps the interface for atomic.Pointer storage.
type cachePeerBox struct{ peer CachePeer }

// SetCachePeer attaches (or, with nil, detaches) the tier-wide cache
// peer. Peering only engages when the pump also has a local result cache:
// without one there are no keys worth sharing and no coalescing.
func (p *Pump) SetCachePeer(cp CachePeer) {
	if cp == nil {
		p.peer.Store(nil)
		return
	}
	p.peer.Store(&cachePeerBox{peer: cp})
}

// cachePeer returns the attached peer, or nil.
func (p *Pump) cachePeer() CachePeer {
	if b := p.peer.Load(); b != nil {
		return b.peer
	}
	return nil
}

// SetRetryPolicy installs the fault-tolerance policy for subsequent call
// executions (retry with backoff, per-attempt deadline, hedging). The zero
// policy restores plain one-shot execution.
func (p *Pump) SetRetryPolicy(pol RetryPolicy) {
	pol = pol.normalized()
	p.policy.Store(&pol)
}

// HasCache reports whether the pump memoizes results. Callers that can
// batch registrations (AEVScan.BindBatch) use this to decide whether
// duplicate keys may share one call: with a cache the pump coalesces
// duplicates anyway, without one each registration is a real call — the
// paper's Figure 7 redundant-call behavior, which must be preserved.
func (p *Pump) HasCache() bool { return p.cache != nil }

// RetryPolicy returns the installed policy (normalized).
func (p *Pump) RetryPolicy() RetryPolicy { return *p.policy.Load() }

// RegisterCtx enqueues an external call and returns its identifier
// immediately; the call runs as soon as the concurrency limits allow. The
// caller later claims the outcome with Take (typically from a ReqSync).
// ctx is the call's cancellation scope: if it has expired when the
// queued call's turn comes, the call is dropped without consuming a slot
// and completes with ctx's error. An already-running call is not interrupted
// (the Engine interface is not context-aware), but its result is
// discarded if its owner has abandoned it. A nil ctx means no bound.
func (p *Pump) RegisterCtx(ctx context.Context, dest, key string, fn func() ([]types.Tuple, error)) types.CallID {
	id, _, _ := p.register(ctx, dest, key, fn, nil)
	return id
}

// Request is a scan's registration of the call key names at src. A call
// the result cache already answers costs the cache probe: its rows come
// back at once (hit is true) and no call record, id or trace exists to
// take, settle or discard. Anything else is registered as by RegisterCtx,
// and src is asked for the call's function only if the pump has to run it.
func (p *Pump) Request(ctx context.Context, src exec.ExternalSource, key string) (id types.CallID, rows []types.Tuple, hit bool) {
	return p.register(ctx, src.Destination(), key, nil, src)
}

// register decides, in one hold of the lock, what becomes of a
// registration: answered from the cache, refused (closed pump, expired
// context), coalesced onto an identical in-flight call, or queued. The
// lookup and the inflight entry must be one critical section with
// complete's Put-and-settle, or a call finishing in between would be run
// again.
func (p *Pump) register(ctx context.Context, dest, key string, fn func() ([]types.Tuple, error), src exec.ExternalSource) (types.CallID, []types.Tuple, bool) {
	if ctx == nil {
		ctx = context.Background()
	}
	d := p.dest(dest)
	p.mu.Lock()
	defer p.mu.Unlock()
	d.count(evRegistered)
	ctxErr := ctx.Err()
	var rows []types.Tuple
	hit := false
	if p.cache != nil && !p.closed && ctxErr == nil {
		if rows, hit = p.cache.Get(key); hit {
			d.count(evCacheHit)
			if src != nil {
				return 0, rows, true
			}
		}
	}
	c := &call{ctx: ctx, dest: d, key: key, fn: fn, src: src}
	if obs.SampledTrace(ctx) != nil {
		c.trace = newCallTrace(dest, key)
	}
	p.nextID++
	c.id = p.nextID
	p.calls[c.id] = c
	switch {
	case p.closed:
		// A closed pump never runs anything; complete immediately with the
		// sentinel so the waiter errors instead of hanging.
		c.trace.finish("closed")
		p.parkLocked(c, CallResult{Err: fmt.Errorf("register: %w", ErrPumpClosed)})
	case ctxErr != nil:
		d.count(evCanceled)
		c.trace.finish("canceled")
		p.parkLocked(c, CallResult{Err: ctxErr})
	case hit:
		c.trace.finish("cache_hit")
		p.parkLocked(c, CallResult{Rows: rows})
	default:
		if p.cache != nil {
			waiting, running := p.inflight[key]
			p.inflight[key] = append(waiting, c)
			if running {
				// Coalesce with an identical in-flight call.
				d.count(evCoalesced)
				c.trace.finish("coalesced")
				break
			}
		}
		c.state, c.enqueued = callQueued, time.Now()
		p.queue = append(p.queue, c)
		p.dispatchLocked(false)
	}
	return c.id, nil, false
}

// dispatchLocked is the pump's one queue walk, behind registration,
// SetDestLimit, releaseToken and complete alike: every queued call the
// limits allow leaves the queue — dropped if its context has already
// expired, else given a token and a goroutine of its own. Each caller
// walks after whatever it did that could let a call start, so between
// critical sections none can. With handoff set the caller is a finishing
// execution that freed one slot: the first call started fills it, so the
// walk ends there and returns it for the caller's own goroutine to run.
// Callers hold p.mu.
func (p *Pump) dispatchLocked(handoff bool) (first *call) {
	for i := 0; i < len(p.queue) && p.activeTotal < p.maxTotal; {
		c := p.queue[i]
		if int(c.dest.active.Load()) >= c.dest.limit {
			i++ // skip; a later call for another destination may fit
			continue
		}
		p.queue = append(p.queue[:i], p.queue[i+1:]...)
		if err := c.ctx.Err(); err != nil {
			p.settleUnstartedLocked(c, err)
			continue
		}
		p.slotWait.Observe(time.Since(c.enqueued).Seconds())
		c.trace.setDispatched()
		p.grabTokenLocked(c.dest)
		c.state = callPending
		c.dest.count(evStarted)
		if handoff {
			first = c
			break
		}
		p.execWG.Add(1)
		go p.run(c)
	}
	return first
}

// settleUnstartedLocked completes a call that never ran (canceled while
// queued, or orphaned by Close) with err, for itself and any calls
// coalesced onto it. Callers hold p.mu.
func (p *Pump) settleUnstartedLocked(c *call, err error) {
	c.dest.count(evCanceled)
	c.trace.finish("canceled")
	p.settleLocked(c, CallResult{Err: err})
	p.cond.Broadcast()
}

// settleLocked ends c's execution (run, or never started): it parks res
// for every call still waiting on it. Those are the calls coalesced under
// c's key when the pump coalesces — c's registration created that entry,
// and at most one execution per key is live — else c alone, unless its
// owner already discarded it. Callers hold p.mu and broadcast before they
// let go of it.
func (p *Pump) settleLocked(c *call, res CallResult) {
	if waiting, shared := p.inflight[c.key]; shared {
		delete(p.inflight, c.key)
		for _, w := range waiting {
			w.state, w.res = callDone, res
		}
	} else if p.calls[c.id] == c {
		c.state, c.res = callDone, res
	}
}

// parkLocked completes a call at registration, before it joined any
// execution. Callers hold p.mu.
func (p *Pump) parkLocked(c *call, res CallResult) {
	c.state, c.res = callDone, res
	p.cond.Broadcast()
}

// run is an execution goroutine: it executes the call dispatchLocked
// started it for and then, one after another, each queued call a
// completion hands it, until a completion finds nothing the limits allow.
func (p *Pump) run(c *call) {
	defer p.execWG.Done()
	for c != nil {
		c = p.execute(c)
	}
}

// execute resolves one call — via the tier cache peer (a bounded network
// hop to the key's home shard), else by the engine call under the retry
// policy — completes it, and returns the queued call complete handed over.
//
// Concurrency accounting: execute is entered holding one execution token
// (from dispatchLocked). Each physical execution of c.fn — first attempt,
// retry, or hedge — holds exactly one token for exactly as long as the
// engine call is actually outstanding. Without a per-attempt deadline or
// hedging the attempt runs inline under the token this goroutine holds: a
// failed one releases it across the backoff, the last one's goes back in
// complete. Otherwise attemptOnce passes the token to an execution
// goroutine that releases it when fn returns, so abandoned (timed-out or
// hedged-out) calls keep counting against the destination until the engine
// really lets go of them.
func (p *Pump) execute(c *call) *call {
	if peer := p.cachePeer(); peer != nil && p.cache != nil {
		if rows, ok := peer.Fetch(c.ctx, c.key); ok {
			c.dest.count(evPeerHit)
			c.trace.finish("peer_hit")
			return p.complete(c, CallResult{Rows: rows}, true)
		}
	}
	if c.fn == nil {
		c.fn = c.src.Call(c.key)
	}
	pol := p.RetryPolicy()
	inline := pol.CallTimeout <= 0 && pol.HedgeAfter <= 0
	held := inline // whether this goroutine holds a token once the loop ends
	var res CallResult
	for attempt := 0; ; attempt++ {
		kind := "attempt"
		if attempt > 0 {
			// Back off — slot already released by the failed attempt — then
			// re-acquire a token for the retry, competing under the same
			// destination limits as everything else.
			kind = "retry"
			if d := p.jitteredBackoff(pol, attempt-1); d > 0 {
				t := time.NewTimer(d)
				select {
				case <-t.C:
				case <-c.ctx.Done():
					t.Stop()
				}
			}
			if err := p.acquireToken(c); err != nil { // fails at once if ctx ended
				res, held = CallResult{Err: fmt.Errorf("%w (after %v)", err, res.Err)}, false
				break
			}
			c.dest.count(evRetry)
		}
		if inline {
			res.Rows, res.Err = p.timedCall(c, kind)
		} else {
			res.Rows, res.Err = p.attemptOnce(c, pol, kind)
		}
		if !IsTransient(res.Err) || attempt+1 >= pol.MaxAttempts || c.ctx.Err() != nil {
			if res.Err != nil && attempt > 0 {
				res.Err = fmt.Errorf("after %d attempts: %w", attempt+1, res.Err)
			}
			break
		}
		if inline {
			p.releaseToken(c.dest)
		}
	}
	if res.Err != nil {
		c.trace.finish("error")
		if c.ctx.Err() == nil {
			// Failures of calls whose query already ended (deadline, LIMIT
			// reached, error elsewhere) are cancellations, not call failures:
			// retrying was rightly suppressed, and nobody will read the result.
			c.dest.count(evFailed)
		}
	} else {
		c.trace.finish("ok")
		// Locally executed result: offer it to the key's home shard so the
		// rest of the tier can hit it. Fill never blocks (it enqueues), and
		// it must run outside p.mu.
		if peer := p.cachePeer(); peer != nil {
			peer.Fill(c.key, res.Rows)
		}
	}
	return p.complete(c, res, held)
}

// complete is the one critical section that ends an execution: it puts a
// good result in the cache, parks the result for every waiter, returns the
// token if this goroutine still holds it, and — when the limits then allow
// a queued call — keeps goroutine and token for that call, which it
// returns for run to execute next. Because the token is dropped and taken
// again inside one hold of p.mu, nobody ever sees it free in between: no
// retry or hedge can slip ahead of the queue's head. One broadcast covers
// the parked results and the freed slot alike.
func (p *Pump) complete(c *call, res CallResult, held bool) (next *call) {
	c.dest.count(evCompleted)
	p.mu.Lock()
	defer p.mu.Unlock()
	if res.Err == nil && p.cache != nil {
		p.cache.Put(c.key, res.Rows)
	}
	p.settleLocked(c, res)
	if held {
		p.dropTokenLocked(c.dest)
		next = p.dispatchLocked(true) // nothing is queued once the pump closed
	}
	p.cond.Broadcast()
	return next
}

// attemptOnce performs one execution of the call under a per-attempt
// deadline or hedging. It is entered holding one execution token, which is
// transferred to the execution goroutine; by the time the engine call
// finishes — even after attemptOnce has returned — its token is released.
func (p *Pump) attemptOnce(c *call, pol RetryPolicy, kind string) ([]types.Tuple, error) {
	type outcome struct {
		rows   []types.Tuple
		err    error
		hedged bool
	}
	// Buffered for every execution this attempt can launch, so stragglers
	// finishing after we have returned never block.
	ch := make(chan outcome, 1+pol.MaxHedges)
	launch := func(hedged bool) {
		execKind := kind
		if hedged {
			execKind = "hedge"
		}
		// This goroutine must NOT observe cancellation: the Engine call is
		// not interruptible, and slot accounting requires the token to be
		// held until the engine truly lets go — even after a timeout or a
		// winning hedge has already answered the query. It is bounded by
		// c.fn() returning and the buffered outcome channel, and it
		// registers with execWG so Quiesce can await the stragglers.
		p.execWG.Add(1)
		go func() {
			defer p.execWG.Done()
			rows, err := p.timedCall(c, execKind)
			// Send before releasing the token: anyone who observes the freed
			// slot (the hedge branch below) is then guaranteed to also see
			// the finished outcome on ch, so it never hedges a done call.
			ch <- outcome{rows: rows, err: err, hedged: hedged}
			p.releaseToken(c.dest)
		}()
	}
	launch(false)

	var timeoutC <-chan time.Time
	if pol.CallTimeout > 0 {
		t := time.NewTimer(pol.CallTimeout)
		defer t.Stop()
		timeoutC = t.C
	}
	var hedgeC <-chan time.Time
	var hedgeTimer *time.Timer
	hedgesLeft := pol.MaxHedges
	if pol.HedgeAfter > 0 && hedgesLeft > 0 {
		hedgeTimer = time.NewTimer(pol.HedgeAfter)
		defer hedgeTimer.Stop()
		hedgeC = hedgeTimer.C
	}
	for {
		select {
		case o := <-ch:
			if o.hedged {
				c.dest.count(evHedgeWin)
			}
			return o.rows, o.err
		case <-hedgeC:
			// Launch a duplicate only if a slot is free right now — hedges
			// must never park, or they would starve other destinations'
			// queued calls.
			if p.tryAcquireToken(c.dest) {
				// The slot may be free because an execution just finished
				// (it sends its outcome before releasing the token, so the
				// acquire above makes that outcome visible here). Hedging a
				// completed call would waste an engine call; take the result
				// instead.
				select {
				case o := <-ch:
					p.releaseToken(c.dest)
					if o.hedged {
						c.dest.count(evHedgeWin)
					}
					return o.rows, o.err
				default:
				}
				c.dest.count(evHedge)
				launch(true)
				hedgesLeft--
			}
			if hedgesLeft > 0 {
				hedgeTimer.Reset(pol.HedgeAfter)
			} else {
				hedgeC = nil
			}
		case <-timeoutC:
			c.dest.count(evTimeout)
			return nil, fmt.Errorf("%w after %v", ErrCallTimeout, pol.CallTimeout)
		case <-c.ctx.Done():
			return nil, c.ctx.Err()
		}
	}
}

// timedCall runs the engine call, recording its wall time in the
// destination's record and the call's trace record. Every physical
// execution — first attempt, retry, or hedge — flows through here, so
// both reflect what the engines actually did, not just what answered the
// query.
func (p *Pump) timedCall(c *call, kind string) ([]types.Tuple, error) {
	start := time.Now()
	rows, err := c.fn()
	elapsed := time.Since(start)
	c.dest.latency.ObserveDuration(elapsed)
	c.trace.addAttempt(kind, start, elapsed, err != nil)
	return rows, err
}

// jitteredBackoff computes the delay before retry n (0-based), adding the
// policy's seeded jitter.
func (p *Pump) jitteredBackoff(pol RetryPolicy, n int) time.Duration {
	d := pol.backoff(n)
	if d <= 0 || pol.JitterFrac <= 0 {
		return d
	}
	max := int64(float64(d) * pol.JitterFrac)
	if max <= 0 {
		return d
	}
	return d + time.Duration(p.backoffRng.Int63n(max+1))
}

// releaseToken returns one execution token, waking queued calls and
// parked retries waiting for a slot.
func (p *Pump) releaseToken(d *destination) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.dropTokenLocked(d)
	p.dispatchLocked(false) // nothing is queued once the pump closed
	p.cond.Broadcast()
}

// dropTokenLocked decrements the in-flight counts. Callers hold p.mu.
func (p *Pump) dropTokenLocked(d *destination) {
	p.activeTotal--
	d.active.Add(-1)
}

// tryAcquireToken claims an execution token if one is free right now.
func (p *Pump) tryAcquireToken(d *destination) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || p.activeTotal >= p.maxTotal || int(d.active.Load()) >= d.limit {
		return false
	}
	p.grabTokenLocked(d)
	return true
}

// acquireToken blocks until an execution token is free (used by retries;
// the limits are the same ones dispatchLocked enforces). It fails when the
// call's context expires or the pump closes.
func (p *Pump) acquireToken(c *call) error {
	start := time.Now()
	return p.await(c.ctx, "retry", func() bool {
		if p.closed || p.activeTotal >= p.maxTotal || int(c.dest.active.Load()) >= c.dest.limit {
			return false
		}
		p.slotWait.Observe(time.Since(start).Seconds())
		p.grabTokenLocked(c.dest)
		return true
	})
}

// await is the pump's one blocking wait: a ReqSync waiting for a result
// (AwaitAnyCtx) and a retry waiting for a slot (acquireToken) both park
// here until try, run under p.mu after every wake-up, reports success. It
// fails with ctx's error once ctx is done and with ErrPumpClosed (wrapped)
// once the pump closes. No wake-up is missed: whatever can change try's
// answer — a settlement, a released token, Close, and through wake the
// end of ctx — broadcasts under p.mu, which the waiter holds from its
// checks until Wait has parked it.
func (p *Pump) await(ctx context.Context, what string, try func() bool) error {
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, p.wake)
		defer stop()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if try() {
			return nil
		}
		if p.closed {
			return fmt.Errorf("%s: %w", what, ErrPumpClosed)
		}
		p.cond.Wait()
	}
}

// wake rouses every goroutine parked in await.
func (p *Pump) wake() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.cond.Broadcast()
}

// grabTokenLocked increments the in-flight counts. Callers hold p.mu.
func (p *Pump) grabTokenLocked(d *destination) {
	p.activeTotal++
	d.active.Add(1)
	if int64(p.activeTotal) > p.maxActive.Load() {
		p.maxActive.Store(int64(p.activeTotal))
	}
}

// SetDestLimit overrides the per-destination concurrency limit for one
// destination — the administrator knob of Section 4.1 ("we need only add
// ... one counter for each external destination. An administrator can
// configure each counter as desired."). A limit of zero or less parks the
// destination's calls until the limit is raised.
func (p *Pump) SetDestLimit(dest string, limit int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.destLocked(dest).limit = limit
	p.dispatchLocked(false)
}

// Take claims the result of a completed call, removing it from the result
// table. ok is false while the call is still pending.
func (p *Pump) Take(id types.CallID) (CallResult, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	c := p.calls[id]
	if c == nil || c.state != callDone {
		return CallResult{}, false
	}
	delete(p.calls, id)
	return c.res, true
}

// Taken is one call claimed by TakeDone.
type Taken struct {
	ID  types.CallID
	Res CallResult
}

// TakeDone is a ReqSync's poll: in one hold of the lock it claims every
// completed call among ids, as Take would, and appends them to buf.
func (p *Pump) TakeDone(ids map[types.CallID]bool, buf []Taken) []Taken {
	p.mu.Lock()
	defer p.mu.Unlock()
	for id := range ids {
		if c := p.calls[id]; c != nil && c.state == callDone {
			delete(p.calls, id)
			buf = append(buf, Taken{ID: id, Res: c.res})
		}
	}
	return buf
}

// AwaitAnyCtx blocks until at least one of the given pending calls has
// completed and returns its id. It is the producer/consumer handshake of
// Section 4.1: each completing pump call signals waiting ReqSyncs. The
// wait is bounded by ctx (nil means no bound): it wakes and returns
// ctx's error when the context expires, so a query deadline propagates
// to a ReqSync blocked on slow external calls. A closed pump wakes
// waiters with ErrPumpClosed (wrapped) rather than hanging them.
func (p *Pump) AwaitAnyCtx(ctx context.Context, ids map[types.CallID]bool) (types.CallID, error) {
	if len(ids) == 0 {
		return 0, fmt.Errorf("AwaitAny with no pending calls")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	var done types.CallID
	err := p.await(ctx, "await", func() bool {
		for id := range ids {
			if c := p.calls[id]; c != nil && c.state == callDone {
				done = id
				return true
			}
		}
		return false
	})
	return done, err
}

// Discard abandons interest in calls (e.g. the query errored elsewhere or
// its deadline expired): a completed result is dropped, a still-queued call
// is removed from the queue without ever consuming a slot, and a running
// call completes into the void. Coalesced siblings of a queued call are
// unaffected — the call still runs for them. An id the pump does not hold
// (already taken, already discarded, never registered) is a no-op.
func (p *Pump) Discard(ids ...types.CallID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, id := range ids {
		c := p.calls[id]
		if c == nil {
			continue
		}
		delete(p.calls, id)
		if c.state == callDone {
			continue
		}
		// Leave the execution this call waits on, so its settlement does
		// not park a result nobody will take.
		waiting := p.inflight[c.key]
		for i, w := range waiting {
			if w == c {
				waiting = append(waiting[:i], waiting[i+1:]...)
				p.inflight[c.key] = waiting
				break
			}
		}
		if c.state != callQueued || len(waiting) > 0 {
			continue // running, or other queries still want this call
		}
		for i, q := range p.queue {
			if q == c {
				p.queue = append(p.queue[:i], p.queue[i+1:]...)
				break
			}
		}
		delete(p.inflight, c.key)
		c.dest.count(evCanceled)
		c.trace.finish("canceled")
	}
}

// Held reports how many call records the pump holds: calls queued,
// running, or parked awaiting Take. A drained pump — every registered call
// taken or discarded — holds none.
func (p *Pump) Held() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.calls)
}

// Close shuts the pump down: queued calls that never started complete with
// ErrPumpClosed, waiters wake with the same sentinel, and in-flight calls
// finish into the result table as garbage. Close is idempotent and safe to
// call while queries are still draining — they observe clean errors rather
// than hanging or panicking.
func (p *Pump) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.closed = true
	queued := p.queue
	p.queue = nil
	for _, c := range queued {
		p.settleUnstartedLocked(c, fmt.Errorf("call never started: %w", ErrPumpClosed))
	}
	p.cond.Broadcast()
}

// Quiesce blocks until every execution goroutine — run() workers plus
// the timeout/hedge executions that outlived their attempt — has
// returned from its engine call and released its token. Engine calls
// are uninterruptible, so this is the only way to know the pump has
// truly let go of the network; call it after Close when tearing down a
// process (a long-lived server that merely drops the pump can skip it).
func (p *Pump) Quiesce() {
	p.execWG.Wait()
}

// Stats reports the pump's counters.
type Stats struct {
	// Registered counts every Register call.
	Registered int64
	// CacheHits counts registrations served instantly from the cache.
	CacheHits int64
	// PeerHits counts calls served by a peer shard's cache instead of the
	// engine (tier-wide cache peering).
	PeerHits int64
	// Coalesced counts registrations piggybacked on an identical
	// in-flight call.
	Coalesced int64
	// Started counts executions actually dispatched to the network.
	Started int64
	// Completed counts finished executions.
	Completed int64
	// Canceled counts calls dropped before starting (context expiry,
	// discard, or pump shutdown).
	Canceled int64
	// Retries counts re-executions launched after a transient failure.
	Retries int64
	// Hedges counts duplicate requests launched for slow attempts, and
	// HedgeWins those whose result arrived before the original's.
	Hedges    int64
	HedgeWins int64
	// CallTimeouts counts attempts abandoned at the per-call deadline.
	CallTimeouts int64
	// CallsFailed counts calls whose final outcome (after retries) was an
	// error.
	CallsFailed int64
	// MaxActive is the peak number of concurrently running calls.
	MaxActive int
}

// Stats returns a snapshot of the pump's counters: the destination
// records summed. It does not take the pump's lock.
func (p *Pump) Stats() Stats {
	var n [numEvents]int64
	for _, d := range *p.dests.Load() {
		for e := range n {
			n[e] += d.n[e].Load()
		}
	}
	return Stats{
		Registered:   n[evRegistered],
		CacheHits:    n[evCacheHit],
		PeerHits:     n[evPeerHit],
		Coalesced:    n[evCoalesced],
		Started:      n[evStarted],
		Completed:    n[evCompleted],
		Canceled:     n[evCanceled],
		Retries:      n[evRetry],
		Hedges:       n[evHedge],
		HedgeWins:    n[evHedgeWin],
		CallTimeouts: n[evTimeout],
		CallsFailed:  n[evFailed],
		MaxActive:    int(p.maxActive.Load()),
	}
}

// Active reports the instantaneous load: calls currently running against
// external destinations and calls parked in the admission queue. A fully
// drained pump reports (0, 0).
func (p *Pump) Active() (running, queued int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.activeTotal, len(p.queue)
}

// DestActive snapshots the per-destination in-flight counts — the
// "one counter for each external destination" of Section 4.1, exposed for
// the server's /statusz page.
func (p *Pump) DestActive() map[string]int {
	out := make(map[string]int)
	for name, d := range *p.dests.Load() {
		if n := d.active.Load(); n > 0 {
			out[name] = int(n)
		}
	}
	return out
}

// ResetStats zeroes every counter and latency record between experiment
// runs. Limits and in-flight counts are state, not statistics, and stay.
func (p *Pump) ResetStats() {
	for _, d := range *p.dests.Load() {
		for e := range d.n {
			d.n[e].Store(0)
		}
		d.latency.Reset()
	}
	p.slotWait.Reset()
	p.maxActive.Store(0)
}
