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

	// A binding round's scratch, kept across rounds: the round's distinct
	// keys with what the cache said of each, the call registered for each
	// key it did not answer (0 until then), each binding's index into them
	// and the arguments it echoes, one binding after another, and the keys'
	// bytes. Close clears it: it holds the cache's rows.
	probes []Probe
	ids    []types.CallID
	keyOf  []int
	argv   []types.Value
	keys   roundKeys
	// The storage BindBatch's rows are cut from, reused by the next
	// round (see exec.BindingBatcher); Open's tuples never come from it.
	tuples []types.Tuple
	rows   [][]types.Tuple
	slab   []types.Value
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

// round is the one routine behind Open and BindBatch: it puts the
// requests of a round of bindings to the pump — without waiting — and
// returns each binding's tuples: the rows of a cache hit, else one tuple
// standing for the registered call's result, its call-supplied attributes
// placeholders. "We always begin by assuming that exactly one tuple
// joins, then 'patch' our results in ReqSync" (Section 4.3). The
// bindings are outer's tuples, each pushed as a frame of cols, or with
// outer nil the current bindings alone. It works in three steps:
//
//  1. every binding's arguments and key are evaluated — the echoed
//     arguments copied, as the tuples outlive the frame, the keys written
//     into one buffer the scan keeps (roundKeys) — and nothing is
//     registered; when the pump memoizes, bindings with the same key share
//     one request and its answer — the same hit rows, or one CallID (the
//     ReqSync patches every waiting tuple of a call when it settles, so
//     sharing is transparent);
//  2. the round's distinct keys are probed in one pass that takes no pump
//     lock (PeekRound): a round of hits never queues behind another
//     query's registrations;
//  3. the keys the probe missed go to the pump together
//     (Pump.RequestRound), which probes them again and registers their
//     calls in one hold of its lock — a miss is the one place a key
//     becomes a string — and then, binding by binding, the tuples are cut
//     from one slab per round (see exec.ExternalScan.AppendRows). Under
//     BindBatch the slab, the tuples and the rows are the scan's, and its
//     next round reuses them.
//
// Without a cache every binding registers its own call: duplicate
// bindings re-issuing duplicate requests is the paper's Figure 7
// behavior, and batching must not silently change it. Either way the
// per-binding accounting (Stats.ExternalCalls, the trace's calls counter)
// counts one logical call per binding.
func (s *AEVScan) round(ctx *exec.Context, cols []schema.Column, outer []types.Tuple) ([][]types.Tuple, error) {
	if s.Pump == nil {
		return nil, fmt.Errorf("AEVScan %s: no request pump", s.Source.Name())
	}
	n := max(len(outer), 1)
	if cap(s.keyOf) < n {
		s.probes, s.ids, s.keyOf = make([]Probe, 0, n), make([]types.CallID, 0, n), make([]int, 0, n)
		s.argv = make([]types.Value, 0, n*(s.Out.Len()-len(s.ResultCols())))
	}
	s.probes, s.ids, s.keyOf, s.argv = s.probes[:0], s.ids[:0], s.keyOf[:0], s.argv[:0]
	s.keys.reset(n, s.Pump.HasCache())
	for i := 0; i < n; i++ {
		if outer != nil {
			ctx.Env.PushFrame(cols, outer[i])
		}
		echoes, key, err := s.Request(ctx)
		if outer != nil {
			ctx.Env.PopFrame()
		}
		if err != nil {
			return nil, err
		}
		ctx.Stats.ExternalCalls++
		s.argv = append(s.argv, echoes...)
		k := s.keys.add(key)
		if k == len(s.probes) {
			s.probes = append(s.probes, Probe{})
			s.ids = append(s.ids, 0)
		}
		s.keyOf = append(s.keyOf, k)
	}
	for k := range s.probes {
		s.probes[k].Key = s.keys.key(k)
	}

	s.Pump.PeekRound(ctx.Ctx, s.Source, s.probes)
	// Registering under the execution context ties the calls' lifetime to
	// the query: if the deadline expires while a call is still queued, the
	// pump drops it without consuming a slot.
	s.Pump.RequestRound(ctx.Ctx, s.Source, s.probes, s.ids)
	for _, id := range s.ids {
		if id != 0 {
			ctx.PumpCalls = append(ctx.PumpCalls, id)
			if obs.SampledTrace(ctx.Ctx) != nil {
				s.traces = append(s.traces, s.Pump.CallTrace(id))
			}
		}
	}

	var slab []types.Value
	var tuples []types.Tuple
	var rows [][]types.Tuple
	if outer != nil {
		slab, tuples = s.slab[:0], s.tuples[:0]
		if cap(s.rows) < n {
			s.rows = make([][]types.Tuple, n)
		}
		rows = s.rows[:n]
	} else {
		tuples, rows = make([]types.Tuple, 0, n), make([][]types.Tuple, n)
	}
	width := len(s.argv) / n // every binding echoes the same arguments
	for i, k := range s.keyOf {
		pr := &s.probes[k]
		s.CountCall(pr.Hit)
		result := pr.Rows
		if !pr.Hit {
			holder := s.holder[0][:0]
			for f := s.Source.NumEcho(); f < len(s.Keep); f++ {
				holder = append(holder, types.Placeholder(s.ids[k], f-s.Source.NumEcho()))
			}
			s.holder[0] = holder
			result = s.holder[:]
		}
		mark := len(tuples)
		var err error
		tuples, slab, err = s.AppendRows(tuples, slab, s.argv[i*width:(i+1)*width], result, n-1-i)
		if err != nil {
			return nil, err
		}
		rows[i] = tuples[mark:len(tuples):len(tuples)]
	}
	if outer != nil {
		s.tuples = tuples
		if cap(slab) > cap(s.slab) {
			s.slab = slab
		}
	}
	return rows, nil
}

// Open implements exec.Operator: it puts the request for the current
// bindings, a round of one, and leaves its tuples to be pulled.
func (s *AEVScan) Open(ctx *exec.Context) error {
	rows, err := s.round(ctx, nil, nil)
	if err != nil {
		return err
	}
	s.pending = rows[0]
	return nil
}

// NextBatch implements exec.Operator: the tuples of this Open, then end
// of stream.
func (s *AEVScan) NextBatch(ctx *exec.Context, max int) (exec.Batch, bool, error) {
	return exec.TakeBatch(&s.pending, max)
}

// BindBatch implements exec.BindingBatcher: it puts the requests for a
// whole batch of outer bindings in one round (see round), so the pump
// sees the full request queue before the enclosing ReqSync's first wait,
// instead of one call per dependent-join binding.
func (s *AEVScan) BindBatch(ctx *exec.Context, cols []schema.Column, outer []types.Tuple) ([][]types.Tuple, error) {
	if len(outer) == 0 {
		return nil, nil
	}
	return s.round(ctx, cols, outer)
}

// Close implements exec.Operator: it lets go of the round scratch, which
// holds the cache's rows and the arguments the rounds echoed.
func (s *AEVScan) Close() error {
	clear(s.probes[:cap(s.probes)])
	clear(s.argv[:cap(s.argv)])
	clear(s.slab[:cap(s.slab)])
	return nil
}

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
