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
	// mutated, so it can be read without the lock.
	policy atomic.Pointer[RetryPolicy]
	// backoffRng drives retry-backoff jitter: a locked, seeded stream
	// (many workers back off at once) shared with the latency/fault
	// simulators' reproducibility contract.
	backoffRng *search.Rand

	// slotWait is the time calls spend waiting for an execution token:
	// queue wait before first dispatch, and the wait past a retry's
	// backoff. This is the admission-control delay of Section 4.1's
	// counters — high values mean the limits, not the engines, bound
	// throughput.
	slotWait *obs.Histogram
	// maxActive is the peak of activeTotal since the last ResetStats.
	maxActive atomic.Int64
	closed    bool

	// execWG tracks the run goroutines, each of which is (or may still be)
	// inside an engine call. Engine calls are uninterruptible, so an
	// execution cannot observe cancellation — even one whose attempt timed
	// out or was hedged out — and Quiesce waits here for it to let go.
	execWG sync.WaitGroup
}

// callState is where a held call is in its life.
type callState uint8

const (
	// callPending: running, or coalesced onto another call's execution.
	callPending callState = iota
	// callQueued: in p.queue, waiting for an execution token (a retry
	// first waits out its backoff there).
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
	// fn performs the call. A scan's registration leaves it to each
	// execution to ask src for, so a call that never runs here never
	// builds one.
	fn  func() ([]types.Tuple, error)
	src exec.ExternalSource
	// trace is the call's lifecycle record when the registering query is
	// sampled; nil otherwise (CallTrace's recording methods are nil-safe).
	trace *CallTrace

	state callState  // guarded by p.mu
	res   CallResult // guarded by p.mu; valid once state is callDone

	// Where the call's executions stand, all guarded by p.mu. attempt is
	// the current attempt (0 is the first), and a retry is not due before
	// enqueued; over is set once the call has its outcome; hedges counts
	// the current attempt's hedges, and deadline and hedger are its timers.
	over             bool
	attempt, hedges  int32
	deadline, hedger *time.Timer
}

// execution is one physical run of a call — its first attempt, a retry,
// or a hedge — and it holds one execution token from the moment
// dispatchLocked or the hedge timer starts it until complete retires it.
// ctx is the context of a query that wanted the call when it started.
type execution struct {
	c       *call
	ctx     context.Context
	attempt int32
	hedge   bool
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
	// peer unreachable) — the caller falls through to the engine. When
	// ctx carries a sampled trace, span is the round trip Fetch timed
	// (nil if it made none); otherwise it is nil.
	Fetch(ctx context.Context, key string) (rows []types.Tuple, ok bool, span *obs.Span)
	// Fill offers freshly computed rows to the key's home shard. It must
	// not block: implementations enqueue and deliver asynchronously.
	Fill(key string, rows []types.Tuple)
}

// cachePeerBox wraps the interface for atomic.Pointer storage.
type cachePeerBox struct{ peer CachePeer }

// SetCachePeer attaches (or, with nil, detaches) the tier-wide cache
// peer. Peering only engages when the pump also has a local result cache:
// without one there are no keys worth sharing and no coalescing, so a
// cacheless pump attaches nothing.
func (p *Pump) SetCachePeer(cp CachePeer) {
	if cp == nil || p.cache == nil {
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
// SetDestLimit, a retry's backoff timer, the deadline timer and complete
// alike: every queued call the limits allow and whose backoff is over
// leaves the queue — dropped if nobody wants it any more, else given a
// token, its attempt's timers and a goroutine of its own. Each caller
// walks after whatever it did that could let a call start, so between
// critical sections none can. With handoff set the caller is a finishing
// execution that freed one slot: the first call started fills it, so the
// walk ends there and hands that execution, token and all, to the
// caller's own goroutine. Callers hold p.mu.
func (p *Pump) dispatchLocked(handoff bool) execution {
	for i := 0; i < len(p.queue) && p.activeTotal < p.maxTotal; {
		c := p.queue[i]
		if int(c.dest.active.Load()) >= c.dest.limit || c.attempt > 0 && time.Now().Before(c.enqueued) {
			i++ // skip; a later call may fit, or be due
			continue
		}
		p.queue = append(p.queue[:i], p.queue[i+1:]...)
		ctx := p.wantedLocked(c)
		if ctx == nil {
			err := c.ctx.Err()
			if err == nil {
				err = context.Canceled // discarded, and every sharer's context has ended
			}
			p.settleUnstartedLocked(c, err)
			continue
		}
		p.slotWait.Observe(time.Since(c.enqueued).Seconds())
		c.trace.setDispatched()
		p.grabTokenLocked(c.dest)
		c.state = callPending
		if c.attempt == 0 {
			c.dest.count(evStarted)
		} else {
			c.dest.count(evRetry)
		}
		p.armLocked(c)
		e := execution{c: c, ctx: ctx, attempt: c.attempt}
		if handoff {
			return e
		}
		p.execWG.Add(1)
		go p.run(e)
	}
	return execution{}
}

// wantedLocked answers who still wants c's execution: c itself if its
// owner still holds it and its context is live, else a waiter on c's key
// whose context is live. It returns that context, or nil when nobody
// does. Callers hold p.mu.
func (p *Pump) wantedLocked(c *call) context.Context {
	if p.calls[c.id] == c && c.ctx.Err() == nil {
		return c.ctx
	}
	for _, w := range p.inflight[c.key] {
		if w.ctx.Err() == nil {
			return w.ctx
		}
	}
	return nil
}

// settleUnstartedLocked completes a queued call — one that never ran, or
// a retry that never did — with err, for itself and any calls coalesced
// onto it (dropped by dispatch, or orphaned by Close). Callers hold p.mu.
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

// run is an execution goroutine: it performs the execution it was started
// for and then, one after another, each one a completion hands it, until
// a completion finds nothing the limits allow. (execute returns before
// complete is called, so the engine call's stack and the completion's are
// not stacked on each other.)
func (p *Pump) run(e execution) {
	defer p.execWG.Done()
	for e.c != nil {
		e = p.complete(e, p.execute(e))
	}
}

// execute performs one execution — a first attempt asks the tier cache
// peer (a bounded network hop to the key's home shard) before the engine —
// and records its wall time in the destination's record and the call's
// trace, the peer hop included.
func (p *Pump) execute(e execution) CallResult {
	c := e.c
	if peer := p.cachePeer(); peer != nil && e.attempt == 0 && !e.hedge {
		rows, ok, span := peer.Fetch(e.ctx, c.key)
		c.trace.addPeerFetch(span)
		if ok {
			c.dest.count(evPeerHit)
			c.trace.finish("peer_hit")
			return CallResult{Rows: rows}
		}
	}
	fn := c.fn
	if fn == nil {
		fn = c.src.Call(c.key)
	}
	kind := "attempt"
	if e.hedge {
		kind = "hedge"
	} else if e.attempt > 0 {
		kind = "retry"
	}
	start := time.Now()
	rows, err := fn()
	elapsed := time.Since(start)
	c.dest.latency.ObserveDuration(elapsed)
	c.trace.addAttempt(kind, start, elapsed, err != nil)
	if peer := p.cachePeer(); peer != nil && err == nil {
		// Locally executed result: offer it to the key's home shard so the
		// rest of the tier can hit it. Fill never blocks (it enqueues), and
		// it must run outside p.mu.
		peer.Fill(c.key, rows)
	}
	return CallResult{Rows: rows, Err: err}
}

// complete is the one critical section that retires an execution. The
// first execution of the call's current attempt to complete decides that
// attempt; one whose attempt the call has moved past, or that finishes
// after the call's outcome, decides nothing. Either way it returns its
// token and — when the limits then allow a queued call — keeps goroutine
// and token for that call, which it returns for run to execute next.
// Because the token is dropped and taken again inside one hold of p.mu,
// nobody ever sees it free in between: no hedge can slip ahead of the
// queue's head. One broadcast covers the parked results and the freed
// slot alike.
func (p *Pump) complete(e execution, res CallResult) execution {
	c := e.c
	p.mu.Lock()
	defer p.mu.Unlock()
	if !c.over && e.attempt == c.attempt {
		if e.hedge {
			c.dest.count(evHedgeWin)
		}
		p.endAttemptLocked(c, res)
	}
	p.dropTokenLocked(c.dest)
	next := p.dispatchLocked(true) // nothing is queued once the pump closed
	p.cond.Broadcast()
	return next
}

// endAttemptLocked decides c's current attempt with res. A transient
// failure the policy allows another attempt for, while somebody still
// wants the call, sends the call to the queue's tail, not due before its
// backoff ends; anything else is the call's outcome: a good result goes
// in the cache, and the result is parked for every waiter. Callers hold
// p.mu.
func (p *Pump) endAttemptLocked(c *call, res CallResult) {
	if c.deadline != nil {
		c.deadline.Stop()
		c.deadline = nil
	}
	if c.hedger != nil {
		c.hedger.Stop()
		c.hedger = nil
	}
	pol := p.policy.Load()
	if IsTransient(res.Err) && int(c.attempt)+1 < pol.MaxAttempts && p.wantedLocked(c) != nil {
		if !p.closed {
			c.attempt++
			c.hedges = 0
			d := p.jitteredBackoff(*pol, int(c.attempt)-1)
			c.state, c.enqueued = callQueued, time.Now().Add(d)
			p.queue = append(p.queue, c)
			if d > 0 {
				time.AfterFunc(d, p.kick)
			}
			return
		}
		res.Err = fmt.Errorf("retry: %w (after %v)", ErrPumpClosed, res.Err)
	} else if res.Err != nil && c.attempt > 0 {
		res.Err = fmt.Errorf("after %d attempts: %w", c.attempt+1, res.Err)
	}
	c.over = true
	c.dest.count(evCompleted)
	if res.Err != nil {
		c.trace.finish("error")
		if p.wantedLocked(c) != nil {
			// Failures of calls whose queries all ended (deadline, LIMIT
			// reached, error elsewhere) are cancellations, not call failures:
			// retrying was rightly suppressed, and nobody will read the result.
			c.dest.count(evFailed)
		}
	} else {
		c.trace.finish("ok")
		if p.cache != nil {
			p.cache.Put(c.key, res.Rows)
		}
	}
	p.settleLocked(c, res)
}

// armLocked starts the timers of the attempt c is being dispatched for:
// its deadline and its first hedge. Callers hold p.mu.
func (p *Pump) armLocked(c *call) {
	pol, attempt := p.policy.Load(), c.attempt
	if d := pol.CallTimeout; d > 0 {
		c.deadline = time.AfterFunc(d, func() { p.expire(c, attempt, d) })
	}
	if pol.HedgeAfter > 0 {
		c.hedger = time.AfterFunc(pol.HedgeAfter, func() { p.hedge(c, attempt) })
	}
}

// expire is the deadline timer of c's attempt: if the attempt is still
// undecided it fails as transient, so the call is retried or the timeout
// is its outcome. The stalled execution keeps its token until the engine
// returns.
func (p *Pump) expire(c *call, attempt int32, d time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if c.over || c.attempt != attempt {
		return
	}
	c.dest.count(evTimeout)
	p.endAttemptLocked(c, CallResult{Err: fmt.Errorf("%w after %v", ErrCallTimeout, d)})
	p.dispatchLocked(false) // a retry with no backoff
	p.cond.Broadcast()
}

// hedge is the hedge timer of c's attempt: while the attempt is undecided
// and wanted it starts a duplicate execution if a slot is free right now
// — a hedge never queues, or it would starve other destinations' queued
// calls — and re-arms while the attempt may hedge again.
func (p *Pump) hedge(c *call, attempt int32) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if c.over || c.attempt != attempt {
		return
	}
	if !p.closed && p.activeTotal < p.maxTotal && int(c.dest.active.Load()) < c.dest.limit && p.wantedLocked(c) != nil {
		p.grabTokenLocked(c.dest)
		c.dest.count(evHedge)
		c.hedges++
		p.execWG.Add(1)
		go p.run(execution{c: c, attempt: attempt, hedge: true})
	}
	if pol := p.policy.Load(); int(c.hedges) < pol.MaxHedges {
		c.hedger.Reset(pol.HedgeAfter)
	}
}

// kick walks the queue when a retry's backoff has run out.
func (p *Pump) kick() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.dispatchLocked(false)
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

// dropTokenLocked decrements the in-flight counts. Callers hold p.mu.
func (p *Pump) dropTokenLocked(d *destination) {
	p.activeTotal--
	d.active.Add(-1)
}

// await is the pump's one blocking wait, behind AwaitAnyCtx: it parks
// until try, run under p.mu after every wake-up, reports success. It
// fails with ctx's error once ctx is done and with ErrPumpClosed (wrapped)
// once the pump closes. No wake-up is missed: whatever can change try's
// answer — a settlement, Close, and through wake the end of ctx —
// broadcasts under p.mu, which the waiter holds from its checks until
// Wait has parked it.
func (p *Pump) await(ctx context.Context, try func() bool) error {
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
			return fmt.Errorf("await: %w", ErrPumpClosed)
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
	err := p.await(ctx, func() bool {
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
// — a retry waiting out its backoff included — is removed from the queue
// without consuming another slot, and a running call completes into the
// void. Coalesced siblings of a queued call are
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

// Close shuts the pump down: queued calls (retries waiting out their
// backoff too) complete with ErrPumpClosed, waiters wake with the same
// sentinel, and in-flight calls finish into the result table as garbage,
// none retried. Close is idempotent and safe to
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
		p.settleUnstartedLocked(c, fmt.Errorf("queued call: %w", ErrPumpClosed))
	}
	p.cond.Broadcast()
}

// Quiesce blocks until every execution goroutine — including those whose
// attempt timed out or was hedged out — has returned from its engine call
// and released its token. Engine calls
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
	// Started counts calls whose first attempt was dispatched.
	Started int64
	// Completed counts started calls that reached their outcome.
	Completed int64
	// Canceled counts calls, or retries, dropped from the queue before
	// they ran: nobody wanted them any more (context expiry, discard), or
	// the pump shut down.
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

// Active reports the instantaneous load: executions currently running
// against external destinations and calls parked in the admission queue,
// retries waiting out their backoff included. A fully
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
