package async

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/schema"
	"repro/internal/types"
)

// ReqSync is the request-synchronizer operator of Section 4.1: it buffers
// tuples containing placeholders for pending pump calls, and as calls
// complete it patches the placeholders with real values (one result row),
// cancels the tuple (zero rows), or expands it into n copies (n rows —
// Section 4.3), copying any still-pending placeholder references into the
// copies (Section 4.4). Tuples with no placeholders pass through — among
// them every tuple of a call the pump's cache answered at registration,
// which the AEVScan emitted complete: such a call is never waited for,
// claimed or settled here.
//
// A ReqSync owns the results of the calls it awaits: after each child
// batch it claims the calls that batch brought in, and from then on the
// pump delivers each one's result into the ReqSync's mailbox when it
// settles (one already settled moves there at the claim). Polling reads
// only the mailbox, never the pump's call table.
//
// Open drains the child completely before any tuple is released ("we
// choose this full-buffering implementation for the sake of simplicity").
type ReqSync struct {
	exec.Unary
	Pump *Pump
	// A is the set of attributes this operator fills in (ReqSync_i.A of
	// Section 4.5.2). It drives percolation clash checks and is unioned
	// when ReqSyncs are consolidated; execution itself discovers
	// placeholders dynamically.
	A map[schema.AttrID]bool

	ready []types.Tuple
	// readyBuf is ready's storage, kept across polls and Opens. A pass
	// that refills an empty ready starts again at its front: the windows
	// cut from it are out of contract by then (the next NextBatch).
	readyBuf []types.Tuple
	waiting  map[types.CallID][]*bufTuple
	// claims are the calls first seen in the batch being admitted, for
	// Open to claim; Close reuses the storage for the ids it discards.
	claims []types.CallID
	box    mailbox
	// bufs is the slab buffered tuples live in. Open starts it again at
	// the front: once the last execution was drained or closed, waiting
	// is empty and nothing points into it. The map above is likewise
	// emptied, not remade, so a re-opened ReqSync buffers in the storage
	// its last execution grew.
	bufs   []bufTuple
	done   []*call // the mailbox's last delivery; its storage is handed back
	opened bool

	// Trace-profile counters (SpanExtras), accumulated across every Open
	// of this instance — a dependent join above re-opens its inner side
	// once per outer binding, and the profile should cover them all.
	nSettled  int64 // calls settled (result consumed from the pump)
	nPatched  int64 // tuples completed by patching in a result row
	nExpanded int64 // extra tuple copies generated (multi-row results, §4.3)
	nCanceled int64 // tuples canceled (zero-row results or degrade-drop)
	nDegraded int64 // failed calls absorbed by a degradation policy
}

type bufTuple struct {
	t        types.Tuple
	canceled bool
}

// NewReqSync builds a ReqSync over child filling the attribute set a.
func NewReqSync(child exec.Operator, pump *Pump, a map[schema.AttrID]bool) *ReqSync {
	return &ReqSync{Unary: exec.Unary{Child: child}, Pump: pump, A: a}
}

// Schema implements exec.Operator.
func (r *ReqSync) Schema() *schema.Schema { return r.Child.Schema() }

// Open implements exec.Operator. It drains the child — thereby registering
// every external call below it with the pump — before the first NextBatch
// returns. The pull is batch-at-a-time: a batch-binding dependent join
// below registers every call of an outer batch with the pump per round, so
// the request queue deepens by whole batches rather than single calls.
// Each batch's new calls are claimed in one hold of the pump's lock.
func (r *ReqSync) Open(ctx *exec.Context) error {
	if err := r.Child.Open(ctx); err != nil {
		return err
	}
	r.ready = r.readyBuf[:0]
	r.bufs = r.bufs[:0]
	if r.waiting == nil {
		r.waiting = make(map[types.CallID][]*bufTuple)
		r.box.signal = make(chan struct{}, 1)
	}
	r.opened = true
	for {
		b, ok, err := r.Child.NextBatch(ctx, ctx.BatchLen())
		if err != nil || !ok {
			r.readyBuf = r.ready[:0]
			return err
		}
		for _, t := range b {
			r.admit(t)
		}
		if len(r.claims) > 0 {
			r.Pump.claim(&r.box, r.claims...)
			r.claims = r.claims[:0]
		}
	}
}

// admit routes a child tuple to the ready queue or the waiting table.
func (r *ReqSync) admit(t types.Tuple) {
	if !t.HasPlaceholder() {
		r.ready = append(r.ready, t)
		return
	}
	r.register(r.buffer(t))
}

// buffer places t in the slab. A full slab is replaced by one twice its
// size; the tuples already in it stay where they are.
func (r *ReqSync) buffer(t types.Tuple) *bufTuple {
	if len(r.bufs) == cap(r.bufs) {
		r.bufs = make([]bufTuple, 0, max(64, 2*cap(r.bufs)))
	}
	r.bufs = append(r.bufs, bufTuple{t: t})
	return &r.bufs[len(r.bufs)-1]
}

// register indexes a buffered tuple under every pending call it
// references, noting a call it sees first for Open to claim. (A copy
// settle makes references only calls already waited on.)
func (r *ReqSync) register(bt *bufTuple) {
	for _, id := range bt.t.PendingCalls() {
		if _, seen := r.waiting[id]; !seen {
			r.claims = append(r.claims, id)
		}
		r.waiting[id] = append(r.waiting[id], bt)
	}
}

// patch replaces every placeholder of call id in t with the corresponding
// field of row.
func patch(t types.Tuple, id types.CallID, row types.Tuple) types.Tuple {
	for i, v := range t {
		if v.IsPlaceholder() && v.Call() == id {
			if v.Field() < len(row) {
				t[i] = row[v.Field()]
			} else {
				t[i] = types.Null()
			}
		}
	}
	return t
}

// settle processes one completed call: Section 4.3's cancellation /
// completion / generation algorithm, with Section 4.4's rule that copies
// proliferate references to other pending calls.
//
// A failed call (the pump's retries exhausted, or a permanent engine error)
// is handled per the query's degradation policy (exec.Context.Degraded):
// it fails the query, or settles as the zero rows or the one all-NULL row
// the policy makes of it. The empty row does for any width: patch NULLs
// every field past a row's end.
func (r *ReqSync) settle(ctx *exec.Context, id types.CallID, res CallResult) error {
	buffered := r.waiting[id]
	delete(r.waiting, id)
	r.nSettled++
	rows := res.Rows
	if res.Err != nil {
		var err error
		if rows, err = ctx.Degraded(res.Err, 0); err != nil {
			return fmt.Errorf("external call failed: %w", err)
		}
		r.nDegraded++
	}
	for _, bt := range buffered {
		if bt.canceled {
			continue
		}
		switch len(rows) {
		case 0:
			// Case 1: the call returned no rows — cancel the tuple.
			bt.canceled = true
			r.nCanceled++
		default:
			// Case 3 first: n-1 additional copies, each patched with one of
			// the extra result rows. Copies are cloned before the original
			// is patched so they retain this call's placeholders, then
			// re-registered under any calls still pending (Section 4.4).
			for _, row := range rows[1:] {
				c := patch(bt.t.Clone(), id, row)
				r.nExpanded++
				if c.HasPlaceholder() {
					r.register(r.buffer(c))
				} else {
					r.ready = append(r.ready, c)
				}
			}
			// Case 2: patch the original in place with the first row.
			patch(bt.t, id, rows[0])
			r.nPatched++
			if !bt.t.HasPlaceholder() {
				r.ready = append(r.ready, bt.t)
			}
		}
	}
	return nil
}

// NextBatch implements exec.Operator: release a window of completed
// tuples. With none ready it polls for more, into ready's storage from
// the front: every window cut from it is out of contract by now.
func (r *ReqSync) NextBatch(ctx *exec.Context, max int) (exec.Batch, bool, error) {
	if !r.opened {
		return nil, false, fmt.Errorf("ReqSync: NextBatch before Open")
	}
	if len(r.ready) == 0 {
		r.ready = r.readyBuf[:0]
		err := r.poll(ctx)
		r.readyBuf = r.ready[:0]
		if err != nil {
			return nil, false, err
		}
	}
	return exec.TakeBatch(&r.ready, max)
}

// poll settles delivered calls until a tuple is ready or none is
// waiting: each pass takes everything the mailbox holds and settles it,
// blocking first only if it holds nothing ("if ReqSync has no completed
// tuples then it must wait for the next signal from ReqPump"). It never
// takes the pump's lock.
func (r *ReqSync) poll(ctx *exec.Context) error {
	for len(r.ready) == 0 && len(r.waiting) > 0 {
		// The execution context bounds the wait: a query deadline wakes
		// the ReqSync with the ctx error, and Close then disowns the
		// still-pending calls.
		if err := r.box.await(ctx.Ctx, r.Pump); err != nil {
			return err
		}
		r.done = r.box.take(r.done)
		for _, c := range r.done {
			if err := r.settle(ctx, c.id, c.res); err != nil {
				return err
			}
		}
	}
	return nil
}

// Close implements exec.Operator: pending calls are disowned (the pump
// drops their results when they complete), and then the mailbox is
// emptied, so a re-opened ReqSync never sees this execution's results.
func (r *ReqSync) Close() error {
	ids := r.claims[:0]
	for id := range r.waiting {
		ids = append(ids, id)
	}
	r.Pump.Discard(ids...)
	r.claims = ids[:0]
	r.box.reset()
	clear(r.waiting)
	// Let go of this execution's tuples; the storage stays.
	clear(r.readyBuf[:cap(r.readyBuf)])
	clear(r.done[:cap(r.done)])
	clear(r.bufs)
	r.ready = nil
	r.opened = false
	return r.Child.Close()
}

// SpanExtras implements exec.SpanExtras: the Section 4.3 settlement
// profile — calls settled, tuples patched/expanded/canceled, and failed
// calls absorbed by a degradation policy.
func (r *ReqSync) SpanExtras() map[string]int64 {
	return map[string]int64{
		"settled":  r.nSettled,
		"patched":  r.nPatched,
		"expanded": r.nExpanded,
		"canceled": r.nCanceled,
		"degraded": r.nDegraded,
	}
}

// Name implements exec.Operator.
func (r *ReqSync) Name() string { return "ReqSync" }

// Describe implements exec.Operator.
func (r *ReqSync) Describe() string { return "" }
