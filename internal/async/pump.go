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
	"repro/internal/lockrank"
	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/types"
)

// ErrPumpClosed is returned (wrapped) by pump operations that find the
// pump shut down while calls are still pending. Waiters must treat it as
// a terminal error for their query, not a panic: a server closes the pump
// only on shutdown, and queries draining at that moment fail cleanly.
var ErrPumpClosed = errors.New("request pump closed")

// CallResult is a completed external call's outcome: delivered into its
// owner's mailbox, or parked in the pump's result table (the paper's
// ReqPumpHash) until an owner claims or takes it.
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
// register, poll, await — is the paper's. The pump keeps the goroutines
// it starts: one with nothing left to run parks on the pump until the
// next execution is handed to it, so a pump at steady state starts none,
// and Close or Quiesce sends the parked ones home.
//
// One pump is shared by every query of a DB, including the many concurrent
// queries of a wsqd server: the limits are global resource-control knobs,
// so competing queries divide the same call budget exactly as Section 4.1
// envisions for a multi-user system.
type Pump struct {
	mu lockrank.PumpMu

	maxTotal int
	maxDest  int

	nextID      types.CallID
	activeTotal int
	queue       []*call
	// calls is the call table (the paper's ReqPumpHash): one record per
	// registered call, held from registration until its result is
	// delivered into its owner's mailbox, or taken, or the call discarded.
	calls map[types.CallID]*call
	// dests is the destination table: one record per external destination
	// carrying its limit, in-flight count and every event counter (see
	// destination). Records are added under p.mu by replacing the map, so
	// Stats, DestActive and metric scrapes read it without the lock.
	dests atomic.Pointer[map[string]*destination]
	cache exec.ResultCache
	// inflight coalesces duplicate in-flight calls: every call registered
	// for a key while its first call is still being asked of a peer (ask),
	// queued or running shares that one call. Only enabled together with
	// the result cache ([HN96]) — the Figure 7 hazard registers |R|
	// identical calls back to back, before the first completes, so a cache
	// alone never helps. The list holds the calls registered on the call;
	// a discarded one stays in it, and the record table says it is gone.
	inflight map[string][]*call
	// peer, when attached, extends the cache and the in-flight table
	// across a wsqd tier (internal/shard): a miss on a key another worker
	// homes is asked of that worker's pump before it queues here (ask).
	// Read lock-free on the call path.
	peer atomic.Pointer[cachePeerBox]
	// sources resolves a source by its name (Source); core.Open sets it to
	// the DB's virtual-table registry before the pump is shared.
	sources func(name string) (exec.ExternalSource, error)

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
	// closed is written only under p.mu, and read without it by PeekRound.
	closed atomic.Bool
	// shut is closed with the pump: it wakes every mailbox's waiter.
	shut chan struct{}
	// boxes recycles the one-off mailboxes of CallWithRetry and
	// AwaitAnyCtx: the pump's own, so a mailbox's channel is made by a
	// user of this pump (in its testing/synctest bubble, say).
	boxes sync.Pool
	// epoch is the origin of the pump's clock (now).
	epoch time.Time

	// execWG tracks the run goroutines, parked ones included, and the ask
	// goroutines; a running one is (or may still be) inside an engine
	// call. Engine calls are uninterruptible, so an execution cannot
	// observe cancellation — even one whose attempt timed out or was
	// hedged out — and Quiesce waits here for it to let go.
	execWG sync.WaitGroup
	// work is where a run goroutine with nothing left to run parks for its
	// next execution. dispatchLocked and the hedge timer hand one over by a
	// non-blocking send under p.mu, and start a goroutine only when nobody
	// is receiving. Unbuffered: an execution never waits in it. Close and
	// each Quiesce close it, under p.mu, and put a fresh one in its place:
	// a goroutine takes the channel it parks on from complete, under p.mu,
	// so one on its way to the receive when they close it still finds it
	// closed, and no send ever meets a closed channel. Guarded by p.mu.
	work chan execution
	// quiescing counts the Quiesce calls in progress: while it is non-zero
	// a goroutine with nothing left to run exits instead of parking.
	// Guarded by p.mu.
	quiescing int
}

// callState is where a held call is in its life.
type callState uint8

const (
	// callPending: running, or coalesced onto another call's execution.
	callPending callState = iota
	// callQueued: in p.queue, waiting for an execution token (a retry
	// first waits out its backoff there).
	callQueued
	// callDone: settled; the result waits in the record for a claim or
	// Take.
	callDone
)

// call is the pump's one record of a registered call: what to run, for
// whom, and — once settled — its result. The record sits in p.calls until
// its result goes to its owner's mailbox or is taken; a Discard removes it
// at once, and an execution already under way then completes into the
// void.
type call struct {
	id       types.CallID
	ctx      context.Context
	dest     *destination
	key      string
	enqueued time.Duration // on the pump's clock (now)
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
	// owner is the mailbox that claimed the call, nil until then. Guarded
	// by p.mu.
	owner *mailbox

	// Where the call's executions stand, all guarded by p.mu. attempt is
	// the current attempt (0 is the first), and a retry is not due before
	// enqueued; over is set once the call has its outcome; hedged is set
	// once the current attempt's one hedge has launched, and deadline and
	// hedger are its timers.
	over, hedged     bool
	attempt          int32
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

// destination is the pump's one record per external destination — the
// paper's "one counter for each external destination" grown to carry
// everything known about it. Token accounting stays under p.mu: limit is
// guarded by it and active is only written under it. Everything else is
// written with atomics wherever the event happens, and all but limit may
// be read without the lock.
type destination struct {
	name string
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
	d := &destination{name: name, limit: p.maxDest, latency: obs.NewHistogram(nil)}
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
		work:       make(chan execution),
		shut:       make(chan struct{}),
		epoch:      time.Now(),
	}
	p.dests.Store(&map[string]*destination{})
	p.SetRetryPolicy(RetryPolicy{})
	p.boxes.New = func() any { return &mailbox{signal: make(chan struct{}, 1)} }
	return p
}

// CachePeer extends the result cache and the in-flight table across a
// tier of wsqd workers (implemented by shard.Peers). Each key has one
// home worker. A scan's call that misses here, on a key another worker
// homes, is asked of that home before it queues for a token here, and the
// home answers through its own pump: from its cache, by coalescing onto
// its call in flight, or by running the call once under its own token.
// Local and remote askers of a key so meet in one in-flight table, the
// home's. The ask holds no token: if it did, every token of two workers
// could be held by asks waiting on each other. A call the home does not
// serve queues here and runs as if no peer were attached.
type CachePeer interface {
	// Remote reports whether key's home is another worker. The pump asks
	// it under its lock, so it must not block.
	Remote(key string) bool
	// Fetch asks key's home to answer the call of the source named src. A
	// false return means "not served" for any reason (the home disowns
	// the key or the source, the call failed there, the home is
	// unreachable), and the caller runs the call itself. When ctx carries
	// a sampled trace, span is the round trip Fetch timed (nil if it made
	// none); otherwise it is nil.
	Fetch(ctx context.Context, src, key string) (rows []types.Tuple, ok bool, span *obs.Span)
}

// cachePeerBox wraps the interface for atomic.Pointer storage.
type cachePeerBox struct{ peer CachePeer }

// SetCachePeer attaches (or, with nil, detaches) the tier-wide cache
// peer. Peering only engages when the pump also has a local result cache:
// without one there are no keys worth sharing and no coalescing, so a
// cacheless pump attaches nothing. Only a scan's calls (Request,
// RequestRound, CallWithRetry) are asked: a RegisterCtx call names no
// source a peer could run it from.
func (p *Pump) SetCachePeer(cp CachePeer) {
	if cp == nil || p.cache == nil {
		p.peer.Store(nil)
		return
	}
	p.peer.Store(&cachePeerBox{peer: cp})
}

// SetSources installs how Source resolves a source by its name. Call it
// before the pump is shared.
func (p *Pump) SetSources(resolve func(name string) (exec.ExternalSource, error)) {
	p.sources = resolve
}

// Source resolves an external source by its name (ExternalSource.Name):
// how a tier worker runs a call a peer asks it for, with no scan of its
// own to take the source from.
func (p *Pump) Source(name string) (exec.ExternalSource, error) {
	if p.sources == nil {
		return nil, fmt.Errorf("no source named %q", name)
	}
	return p.sources(name)
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

// RegisterCtx enqueues an external call and returns its identifier
// immediately; the call runs as soon as the concurrency limits allow. Its
// result waits in the call table until the caller claims it — a ReqSync,
// into its mailbox — or takes it (Take, after AwaitAnyCtx).
// ctx is the call's cancellation scope: if it has expired when the
// queued call's turn comes, the call is dropped without consuming a slot
// and completes with ctx's error. An already-running call is not interrupted
// (the Engine interface is not context-aware), but its result is
// discarded if its owner has abandoned it. A nil ctx means no bound.
func (p *Pump) RegisterCtx(ctx context.Context, dest, key string, fn func() ([]types.Tuple, error)) types.CallID {
	id, _, _ := p.register(ctx, dest, key, fn, nil)
	return id
}

// Probe is one distinct key of a binding round and what the result cache
// said of it: Rows are its rows when Hit is set. Key is the caller's
// bytes, read only during PeekRound and RequestRound.
type Probe struct {
	Key  []byte
	Rows []types.Tuple
	Hit  bool
}

// PeekRound is a binding round's cache probe, taken outside p.mu: one
// pass over the round's distinct keys that sets Rows and Hit for each the
// cache holds, at the price of the cache's own lock and the destination's
// atomic counters. Each hit is counted as a registration answered by the
// cache, exactly as Request counts one; a miss is counted nowhere, and
// the caller sends the round through RequestRound, whose locked lookup is
// then the key's one counted lookup and catches a call that completed
// since. With no cache, a closed pump or an ended ctx, nothing is
// answered: RequestRound gives those registrations their records.
func (p *Pump) PeekRound(ctx context.Context, src exec.ExternalSource, round []Probe) {
	if p.cache == nil || p.closed.Load() || ctx != nil && ctx.Err() != nil {
		return
	}
	hits := 0
	for i := range round {
		pr := &round[i]
		if pr.Rows, pr.Hit = p.cache.Peek(pr.Key); pr.Hit {
			hits++
		}
	}
	if hits > 0 {
		d := p.dest(src.Destination())
		d.n[evRegistered].Add(int64(hits))
		d.n[evCacheHit].Add(int64(hits))
	}
}

// RequestRound registers every key of round that PeekRound did not
// answer, at src, in one hold of p.mu: each is looked up again and either
// answered by the cache (Rows and Hit set) or registered as by Request,
// its id written to ids at the key's index. The round's calls share one
// clock reading and one walk of the queue. A round PeekRound answered
// whole takes no lock.
func (p *Pump) RequestRound(ctx context.Context, src exec.ExternalSource, round []Probe, ids []types.CallID) {
	k := 0
	for k < len(round) && round[k].Hit {
		k++
	}
	if k == len(round) {
		return
	}
	if ctx == nil {
		ctx = context.Background()
	}
	d, now := p.dest(src.Destination()), p.now()
	p.mu.Lock()
	defer p.mu.Unlock()
	for ; k < len(round); k++ {
		if pr := &round[k]; !pr.Hit {
			ids[k], pr.Rows, pr.Hit = p.registerLocked(ctx, d, string(pr.Key), nil, src, now)
		}
	}
	p.dispatchLocked(false)
}

// Request is one registration of the call key names at src (behind
// CallWithRetry), looked up under p.mu: a call the result cache answers
// costs the lookup — its rows come back at once (hit is true) and no call
// record, id or trace exists. Anything else is registered as by
// RegisterCtx, and src is asked for the call's function only if the pump
// has to run it.
func (p *Pump) Request(ctx context.Context, src exec.ExternalSource, key string) (id types.CallID, rows []types.Tuple, hit bool) {
	return p.register(ctx, src.Destination(), key, nil, src)
}

// CallWithRetry is a synchronous scan's call (exec.Context.RetryCall): a
// Request, awaited in a mailbox of its own. The pump treats it as any
// scan's call — the cache or an identical call in flight may answer it,
// else it waits for a token and runs under the retry policy, deadlines and
// hedges included, counted under src's destination — and the caller
// blocks until it settles. hit reports that the cache answered at
// registration. span is the call's pump.call span when ctx is sampled. If
// ctx ends or the pump closes first, the call is discarded and the wait's
// error returned.
func (p *Pump) CallWithRetry(ctx context.Context, src exec.ExternalSource, key string) (rows []types.Tuple, hit bool, span *obs.Span, err error) {
	id, rows, hit := p.Request(ctx, src, key)
	if hit {
		return rows, true, nil, nil
	}
	var ct *CallTrace
	if obs.SampledTrace(ctx) != nil {
		ct = p.CallTrace(id)
	}
	b := p.boxes.Get().(*mailbox)
	defer p.boxes.Put(b)
	b.reset()
	p.claim(b, id)
	if err = b.await(ctx, p); err != nil {
		p.Discard(id)
	} else {
		rows, err = b.got[0].res.Rows, b.got[0].res.Err
	}
	if ct != nil {
		span = ct.Span()
	}
	return rows, false, span, err
}

// register is RegisterCtx and Request: one registration and a queue walk.
func (p *Pump) register(ctx context.Context, dest, key string, fn func() ([]types.Tuple, error), src exec.ExternalSource) (types.CallID, []types.Tuple, bool) {
	if ctx == nil {
		ctx = context.Background()
	}
	d := p.dest(dest)
	p.mu.Lock()
	defer p.mu.Unlock()
	id, rows, hit := p.registerLocked(ctx, d, key, fn, src, p.now())
	p.dispatchLocked(false)
	return id, rows, hit
}

// registerLocked decides what becomes of a registration: answered from
// the cache, refused (closed pump, expired context), coalesced onto an
// identical in-flight call, asked of the key's home worker (a scan's
// call, when a peer is attached and another worker homes the key), or
// queued at now for the caller's queue walk.
// The lookup and the inflight entry must be one critical section with
// complete's Put-and-settle, or a call finishing in between would be run
// again: a miss PeekRound saw outside the lock is only a hint, and this
// lookup is the one that decides. Callers hold p.mu.
func (p *Pump) registerLocked(ctx context.Context, d *destination, key string, fn func() ([]types.Tuple, error), src exec.ExternalSource, now time.Duration) (types.CallID, []types.Tuple, bool) {
	d.count(evRegistered)
	ctxErr := ctx.Err()
	var rows []types.Tuple
	hit := false
	if p.cache != nil && !p.closed.Load() && ctxErr == nil {
		if rows, hit = p.cache.Get(key); hit {
			d.count(evCacheHit)
			if src != nil {
				return 0, rows, true
			}
		}
	}
	c := &call{ctx: ctx, dest: d, key: key, fn: fn, src: src}
	if obs.SampledTrace(ctx) != nil {
		c.trace = newCallTrace(d.name, key)
	}
	p.nextID++
	c.id = p.nextID
	p.calls[c.id] = c
	switch {
	case p.closed.Load():
		// A closed pump never runs anything; complete immediately with the
		// sentinel so the waiter errors instead of hanging.
		c.trace.finish("closed")
		p.deliverLocked(c, CallResult{Err: fmt.Errorf("register: %w", ErrPumpClosed)})
	case ctxErr != nil:
		d.count(evCanceled)
		c.trace.finish("canceled")
		p.deliverLocked(c, CallResult{Err: ctxErr})
	case hit:
		c.trace.finish("cache_hit")
		p.deliverLocked(c, CallResult{Rows: rows})
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
			if peer := p.cachePeer(); peer != nil && src != nil && peer.Remote(key) {
				p.execWG.Add(1)
				go p.ask(ctx, peer, c)
				break
			}
		}
		c.state, c.enqueued = callQueued, now
		p.queue = append(p.queue, c)
	}
	return c.id, nil, false
}

// dispatchLocked is the pump's one queue walk, behind registration,
// SetDestLimit, a retry's backoff timer, the deadline timer and complete
// alike: every queued call the limits allow and whose backoff is over
// leaves the queue — dropped if nobody wants it any more, else given a
// token, its attempt's timers and a goroutine: a parked one if one is
// receiving, else a new one. Each caller walks after whatever it did that
// could let a call start, so between critical sections none can. With
// handoff set the caller is a finishing execution that freed one slot:
// the first call started fills it, so the walk ends there and hands that
// execution, token and all, to the caller's own goroutine. The walk reads
// the clock once, when it first meets a call. Callers hold p.mu.
func (p *Pump) dispatchLocked(handoff bool) execution {
	now := time.Duration(-1)
	for i := 0; i < len(p.queue) && p.activeTotal < p.maxTotal; {
		c := p.queue[i]
		if now < 0 {
			now = p.now()
		}
		if int(c.dest.active.Load()) >= c.dest.limit || c.attempt > 0 && now < c.enqueued {
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
		p.slotWait.Observe((now - c.enqueued).Seconds())
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
		select {
		case p.work <- e:
		default:
			p.execWG.Add(1)
			go p.run(e)
		}
	}
	return execution{}
}

// wantedLocked answers who still wants c's execution: c itself if its
// owner still holds it and its context is live, else a waiter on c's key
// that is still held and whose context is live. It returns that context,
// or nil when nobody does. Callers hold p.mu.
func (p *Pump) wantedLocked(c *call) context.Context {
	if p.calls[c.id] == c && c.ctx.Err() == nil {
		return c.ctx
	}
	for _, w := range p.inflight[c.key] {
		if p.calls[w.id] == w && w.ctx.Err() == nil {
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
}

// settleLocked ends c's execution (run, or never started): it delivers
// res to every call registered on it. Those are the calls coalesced under
// c's key when the pump coalesces — c's registration created that entry,
// and at most one execution per key is live — else c alone. Callers hold
// p.mu.
func (p *Pump) settleLocked(c *call, res CallResult) {
	if waiting, shared := p.inflight[c.key]; shared {
		delete(p.inflight, c.key)
		for _, w := range waiting {
			p.deliverLocked(w, res)
		}
	} else {
		p.deliverLocked(c, res)
	}
}

// deliverLocked is the one way a result reaches its call, and only while
// the pump still holds the call: a discarded one gets nothing. A claimed
// call leaves the table for its owner's mailbox; an unclaimed one keeps
// its result until claimed or taken. Callers hold p.mu.
func (p *Pump) deliverLocked(w *call, res CallResult) {
	if p.calls[w.id] != w {
		return
	}
	w.state, w.res = callDone, res
	if w.owner != nil {
		delete(p.calls, w.id)
		w.owner.put(w)
	}
}

// run is an execution goroutine: it performs the execution it was started
// for and then, one after another, each one its completion hands it. When
// a completion finds nothing the limits allow, the goroutine parks on
// p.work until dispatchLocked or the hedge timer hands it the next
// execution, and keeps the stack it grew to reach the engine. It returns
// only when complete tells it to — the pump closed, or a Quiesce is in
// progress — or when Close or Quiesce closes the channel it parks on.
// (execute returns before complete is called, so the engine call's stack
// and the completion's are not stacked on each other.)
func (p *Pump) run(e execution) {
	defer p.execWG.Done()
	for {
		next, park := p.complete(e, p.execute(e))
		if next.c == nil && park != nil {
			next = <-park // the zero execution once the channel is closed
		}
		if next.c == nil {
			return
		}
		e = next
	}
}

// ask is a call's trip to the worker that homes its key, made before
// the call queues here and holding no token. A call the home serves
// settles as a completed one does, into the cache and to every call
// registered on it; one it does not serve joins the queue, and so runs
// here. An ask that ended with its asker's context is made again for a
// registration on the call that still wants it.
func (p *Pump) ask(ctx context.Context, peer CachePeer, c *call) {
	defer p.execWG.Done()
	for ctx != nil {
		rows, ok, span := peer.Fetch(ctx, c.src.Name(), c.key)
		c.trace.addPeerFetch(span)
		ctx = p.answered(ctx, c, rows, ok)
	}
}

// answered ends an ask of c made under ctx: it settles c with the rows
// the home served, or queues it, or returns the context of a registration
// on c to ask again under when ctx ended before the answer came.
func (p *Pump) answered(ctx context.Context, c *call, rows []types.Tuple, ok bool) context.Context {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !ok && ctx.Err() != nil && !p.closed.Load() {
		if next := p.wantedLocked(c); next != nil {
			return next
		}
	}
	switch {
	case ok:
		c.dest.count(evPeerHit)
		c.trace.finish("peer_hit")
		p.cache.Put(c.key, rows)
		p.settleLocked(c, CallResult{Rows: rows})
	case p.closed.Load():
		p.settleUnstartedLocked(c, fmt.Errorf("asked call: %w", ErrPumpClosed))
	default:
		c.state, c.enqueued = callQueued, p.now()
		p.queue = append(p.queue, c)
		p.dispatchLocked(false)
	}
	return nil
}

// execute performs one execution and records its wall time in the
// destination's record and the call's trace.
func (p *Pump) execute(e execution) CallResult {
	c := e.c
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
	// The execution is timed on the pump's clock, one reading at each end;
	// only a traced call also reads the wall clock, for its span's start.
	var start time.Time
	if c.trace != nil {
		start = time.Now()
	}
	begin := p.now()
	rows, err := fn()
	elapsed := p.now() - begin
	c.dest.latency.ObserveDuration(elapsed)
	c.trace.addAttempt(kind, start, elapsed, err != nil)
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
// queue's head. Settling delivers the result into each owner's mailbox
// under the same hold. With nothing to run next, it decides under the same hold
// whether the goroutine parks: park is the channel to park on, or nil
// when the goroutine is to exit (the pump closed, or a Quiesce is in
// progress).
func (p *Pump) complete(e execution, res CallResult) (next execution, park <-chan execution) {
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
	next = p.dispatchLocked(true) // nothing is queued once the pump closed
	if next.c == nil && !p.closed.Load() && p.quiescing == 0 {
		park = p.work
	}
	return next, park
}

// endAttemptLocked decides c's current attempt with res. A transient
// failure the policy allows another attempt for, while somebody still
// wants the call, sends the call to the queue's tail, not due before its
// backoff ends; anything else is the call's outcome: a good result goes
// in the cache, and the result is delivered to every waiter. Callers hold
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
		if !p.closed.Load() {
			c.attempt++
			c.hedged = false
			d := p.jitteredBackoff(*pol, int(c.attempt)-1)
			c.state, c.enqueued = callQueued, p.now()+d
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
}

// hedge is the hedge timer of c's attempt: while the attempt is undecided
// and wanted it starts a duplicate execution if a slot is free right now
// — a hedge never queues, or it would starve other destinations' queued
// calls — on a parked goroutine if one is receiving, and re-arms until
// the attempt's one hedge has launched.
func (p *Pump) hedge(c *call, attempt int32) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if c.over || c.attempt != attempt {
		return
	}
	if !p.closed.Load() && p.activeTotal < p.maxTotal && int(c.dest.active.Load()) < c.dest.limit && p.wantedLocked(c) != nil {
		p.grabTokenLocked(c.dest)
		c.dest.count(evHedge)
		c.hedged = true
		e := execution{c: c, attempt: attempt, hedge: true}
		select {
		case p.work <- e:
		default:
			p.execWG.Add(1)
			go p.run(e)
		}
	}
	if !c.hedged {
		c.hedger.Reset(p.policy.Load().HedgeAfter)
	}
}

// now reads the pump's clock: the monotonic time since the pump was made,
// which costs one clock reading where time.Now costs two.
func (p *Pump) now() time.Duration { return time.Since(p.epoch) }

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

// Take removes a settled, unclaimed call's result from the table and
// returns it. ok is false while the call is pending, or once claimed.
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

// AwaitAnyCtx blocks until one of the given unclaimed calls has settled
// and returns its id; the result stays in the call table for Take. When
// none has, it claims them into a mailbox of its own for the wait, then
// hands the claims back and returns what was delivered to the table. ctx
// (nil means no bound) ends the wait with its error, and a closed pump
// with ErrPumpClosed (wrapped). The query path does not use it: a ReqSync
// claims its calls once and reads its own mailbox.
func (p *Pump) AwaitAnyCtx(ctx context.Context, ids map[types.CallID]bool) (types.CallID, error) {
	if len(ids) == 0 {
		return 0, fmt.Errorf("AwaitAny with no pending calls")
	}
	p.mu.Lock()
	for id := range ids {
		if c := p.calls[id]; c != nil && c.state == callDone {
			p.mu.Unlock()
			return id, nil
		}
	}
	b := p.boxes.Get().(*mailbox)
	defer p.boxes.Put(b)
	b.reset()
	for id := range ids {
		p.claimLocked(b, id)
	}
	p.mu.Unlock()
	err := b.await(ctx, p)
	p.mu.Lock()
	defer p.mu.Unlock()
	for id := range ids {
		if c := p.calls[id]; c != nil {
			c.owner = nil
		}
	}
	for _, c := range b.got {
		c.owner, p.calls[c.id] = nil, c
	}
	if err != nil {
		return 0, err
	}
	return b.got[0].id, nil
}

// Discard abandons interest in calls (e.g. the query errored elsewhere or
// its deadline expired): a completed result is dropped, a still-queued call
// — a retry waiting out its backoff included — is removed from the queue
// without consuming another slot, and a running call completes into the
// void. Coalesced siblings of a queued call are
// unaffected — the call still runs for them. An id the pump does not hold
// (already delivered, taken or discarded, never registered) is a no-op.
// A discarded call leaves the table, and with it the reach of settlement:
// its owner's mailbox receives nothing for it. No ids, no lock: a query
// whose calls were all cache hits ends without p.mu.
func (p *Pump) Discard(ids ...types.CallID) {
	if len(ids) == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, id := range ids {
		c := p.calls[id]
		if c == nil {
			continue
		}
		delete(p.calls, id)
		if c.state != callQueued {
			continue // settled, running, or coalesced onto another's execution
		}
		shared := false
		for _, w := range p.inflight[c.key] {
			shared = shared || p.calls[w.id] == w
		}
		if shared {
			continue // other queries still want this call
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
// running, or settled and not yet claimed or taken. A result delivered
// into a mailbox is its owner's and is not counted. A drained pump —
// every registered call delivered, taken or discarded — holds none.
func (p *Pump) Held() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.calls)
}

// Close shuts the pump down: queued calls (retries waiting out their
// backoff too) complete with ErrPumpClosed, closing shut wakes every
// mailbox's waiter with the same sentinel, and in-flight calls finish
// into the void or a mailbox nobody reads, none retried. The parked execution goroutines exit, and each running
// one exits once its engine call returns. Close is idempotent and safe to
// call while queries are still draining — they observe clean errors rather
// than hanging or panicking.
func (p *Pump) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed.Load() {
		return
	}
	p.closed.Store(true)
	queued := p.queue
	p.queue = nil
	for _, c := range queued {
		p.settleUnstartedLocked(c, fmt.Errorf("queued call: %w", ErrPumpClosed))
	}
	close(p.shut)
	p.retireParkedLocked()
}

// retireParkedLocked sends every parked execution goroutine home: each
// parks on the channel it closes, and later ones park on a fresh one.
// Callers hold p.mu.
func (p *Pump) retireParkedLocked() {
	close(p.work)
	p.work = make(chan execution)
}

// Quiesce blocks until the pump has no goroutine left: it sends the parked
// ones home and waits for every running one — including those whose
// attempt timed out or was hedged out — to return from its engine call,
// release its token and, since it finishes while Quiesce is in progress,
// exit rather than park, and for every ask of a peer to end. Engine
// calls are uninterruptible, so this is the only way to know the pump has
// truly let go of the network; call it
// after Close when tearing down a process. On an open pump it waits for
// the queue to drain, and calls dispatched afterwards start goroutines
// afresh. A pump dropped without Close or Quiesce keeps its parked
// goroutines.
func (p *Pump) Quiesce() {
	p.mu.Lock()
	p.quiescing++
	p.retireParkedLocked()
	p.mu.Unlock()
	p.execWG.Wait()
	p.mu.Lock()
	p.quiescing--
	p.mu.Unlock()
}

// Stats reports the pump's counters.
type Stats struct {
	// Registered counts every registration: each RegisterCtx, and each
	// distinct key of a scan's round, answered by PeekRound or by Request.
	Registered int64 `json:"registered"`
	// Started counts calls whose first attempt was dispatched.
	Started int64 `json:"started"`
	// Completed counts started calls that reached their outcome.
	Completed int64 `json:"completed"`
	// CacheHits counts registrations served instantly from the cache.
	CacheHits int64 `json:"cache_hits"`
	// PeerHits counts calls the key's home worker answered (tier-wide
	// peering): from its cache, its call in flight or its own execution.
	// None of them starts here.
	PeerHits int64 `json:"peer_hits"`
	// Coalesced counts registrations piggybacked on an identical
	// in-flight call.
	Coalesced int64 `json:"coalesced"`
	// Canceled counts calls, or retries, dropped from the queue before
	// they ran: nobody wanted them any more (context expiry, discard), or
	// the pump shut down.
	Canceled int64 `json:"canceled"`
	// Retries counts re-executions launched after a transient failure.
	Retries int64 `json:"retries"`
	// Hedges counts duplicate requests launched for slow attempts, and
	// HedgeWins those whose result arrived before the original's.
	Hedges    int64 `json:"hedges"`
	HedgeWins int64 `json:"hedge_wins"`
	// CallTimeouts counts attempts abandoned at the per-call deadline.
	CallTimeouts int64 `json:"call_timeouts"`
	// CallsFailed counts calls whose final outcome (after retries) was an
	// error.
	CallsFailed int64 `json:"calls_failed"`
	// MaxActive is the peak number of concurrently running calls.
	MaxActive int `json:"max_active"`
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
