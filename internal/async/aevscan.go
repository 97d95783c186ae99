package async

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/types"
)

// AEVScan is the asynchronous external virtual-table scan of Section 4.1.
// Where EVScan blocks for the duration of the search-engine request,
// AEVScan registers the call with the ReqPump and immediately returns a
// single tuple whose call-supplied attributes hold placeholders; the
// ReqSync operator higher in the plan later patches, cancels, or expands
// that tuple when the call completes (Section 4.3). A call the pump's
// result cache already answers has nothing to wait for: the scan emits its
// real rows — none, one or many — exactly as EVScan would, and the ReqSync
// passes them through.
type AEVScan struct {
	exec.ExternalScan
	Pump *Pump

	// pending holds the tuples an Open leaves to be pulled.
	pending []types.Tuple
	// holder is the one-row "result" of a registered call: a placeholder
	// per result field, materialized like any other row.
	holder [1]types.Tuple
	// traces accumulates the lifecycle records of the calls this scan
	// registered while the query was sampled; TraceChildren turns them
	// into pump call spans at Close. Empty for untraced queries.
	traces []*CallTrace
}

// NewAEVScan builds an asynchronous external scan.
func NewAEVScan(src exec.ExternalSource, inputs []expr.Expr, out *schema.Schema, pump *Pump) *AEVScan {
	return FromEVScan(exec.NewEVScan(src, inputs, out), pump)
}

// FromEVScan converts a synchronous EVScan into its asynchronous
// counterpart (step one of the rewrite algorithm).
func FromEVScan(ev *exec.EVScan, pump *Pump) *AEVScan {
	return &AEVScan{ExternalScan: ev.ExternalScan, Pump: pump}
}

// answer is what the pump made of one request: the rows of a cache hit, or
// the id of the registered call.
type answer struct {
	id   types.CallID
	rows []types.Tuple
	hit  bool
}

// bind is the one routine behind Open and BindBatch. It evaluates the
// call's parameters against the current dependent-join bindings, puts the
// request to the pump — without waiting — and appends the binding's tuples
// to dst, cut from slab (see exec.ExternalScan.AppendRows; more is how
// many bindings follow in the round): the rows of a cache hit, else one
// tuple standing for the registered call's result, its call-supplied
// attributes placeholders. "We always begin by assuming that exactly one
// tuple joins, then 'patch' our results in ReqSync" (Section 4.3).
// Argument values are copied, so the tuples outlive the binding frame. A
// non-nil byKey shares one request among the bindings of a batch that have
// the same key.
func (s *AEVScan) bind(ctx *exec.Context, byKey map[string]answer, dst []types.Tuple, slab []types.Value, more int) ([]types.Tuple, []types.Value, error) {
	if s.Pump == nil {
		return dst, slab, fmt.Errorf("AEVScan %s: no request pump", s.Source.Name())
	}
	args, keyBytes, err := s.Request(ctx)
	if err != nil {
		return dst, slab, err
	}
	ctx.Stats.ExternalCalls++
	a, seen := byKey[string(keyBytes)]
	if !seen {
		key := string(keyBytes)
		// Registering under the execution context ties the call's lifetime
		// to the query: if the deadline expires while the call is still
		// queued, the pump drops it without consuming a slot.
		a.id, a.rows, a.hit = s.Pump.Request(ctx.Ctx, s.Source, key)
		if byKey != nil {
			byKey[key] = a
		}
		if !a.hit {
			ctx.PumpCalls = append(ctx.PumpCalls, a.id)
			if obs.SampledTrace(ctx.Ctx) != nil {
				s.traces = append(s.traces, s.Pump.CallTrace(a.id))
			}
		}
	}
	s.CountCall(a.hit)
	if a.hit {
		return s.AppendRows(dst, slab, args, a.rows, more)
	}
	holder := s.holder[0][:0]
	for f := s.Source.NumEcho(); f < len(s.Keep); f++ {
		holder = append(holder, types.Placeholder(a.id, f-s.Source.NumEcho()))
	}
	s.holder[0] = holder
	return s.AppendRows(dst, slab, args, s.holder[:], more)
}

// Open implements exec.Operator: it puts the request for the current
// bindings and leaves its tuples to be pulled.
func (s *AEVScan) Open(ctx *exec.Context) (err error) {
	s.pending, _, err = s.bind(ctx, nil, nil, nil, 0)
	return err
}

// NextBatch implements exec.Operator: the tuples of this Open, then end
// of stream.
func (s *AEVScan) NextBatch(ctx *exec.Context, max int) (exec.Batch, bool, error) {
	return exec.TakeBatch(&s.pending, max)
}

// BindBatch implements exec.BindingBatcher: it puts the requests for a
// whole batch of outer bindings in one round — when the pump memoizes
// results, one Pump.Request per *distinct* key in the batch — so the pump
// sees the full request queue before the enclosing ReqSync's first wait,
// instead of one call per dependent-join binding. Duplicate keys within
// the batch then share one answer: the same hit rows, or one CallID (the
// ReqSync patches every waiting tuple of a call when it settles, so
// sharing is transparent). Without a cache, every binding registers its
// own call: duplicate bindings re-issuing duplicate requests is the
// paper's Figure 7 behavior, and batching must not silently change it.
// Either way the per-binding accounting (Stats.ExternalCalls, the trace's
// calls counter) counts one logical call per binding, matching the
// per-binding path. The round's tuples share slabs.
func (s *AEVScan) BindBatch(ctx *exec.Context, cols []schema.Column, outer []types.Tuple) ([][]types.Tuple, error) {
	var byKey map[string]answer
	if s.Pump != nil && s.Pump.HasCache() {
		byKey = make(map[string]answer, len(outer))
	}
	var slab []types.Value
	tuples := make([]types.Tuple, 0, len(outer))
	rows := make([][]types.Tuple, len(outer))
	for i, lt := range outer {
		mark := len(tuples)
		ctx.Env.PushFrame(cols, lt)
		var err error
		tuples, slab, err = s.bind(ctx, byKey, tuples, slab, len(outer)-1-i)
		ctx.Env.PopFrame()
		if err != nil {
			return nil, err
		}
		rows[i] = tuples[mark:len(tuples):len(tuples)]
	}
	return rows, nil
}

// Close implements exec.Operator.
func (s *AEVScan) Close() error { return nil }

// Children implements exec.Operator.
func (s *AEVScan) Children() []exec.Operator { return nil }

// SetChild implements exec.Operator.
func (s *AEVScan) SetChild(int, exec.Operator) { panic("AEVScan has no children") }

// TraceChildren implements exec.TraceChildren: the pump call timelines
// this scan registered while the query was sampled, as spans. Handing
// them out empties the list, so re-closing (dependent joins close their
// inner subtree once per binding) attaches each call exactly once.
func (s *AEVScan) TraceChildren() []*obs.Span {
	spans := make([]*obs.Span, 0, len(s.traces))
	for _, ct := range s.traces {
		spans = append(spans, ct.Span())
	}
	s.traces = s.traces[:0]
	return spans
}

// Name implements exec.Operator.
func (s *AEVScan) Name() string { return "AEVScan" }

// Describe implements exec.Operator.
func (s *AEVScan) Describe() string { return s.Source.Name() }

// FilledAttrs returns the set of output attributes whose values this scan
// leaves as placeholders — the ReqSync_i.A set of Section 4.5.2.
func (s *AEVScan) FilledAttrs() map[schema.AttrID]bool {
	set := make(map[schema.AttrID]bool)
	for _, col := range s.ResultCols() {
		set[col.ID] = true
	}
	return set
}
