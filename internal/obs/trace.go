package obs

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Span is one node of a per-query execution trace: an operator of the
// plan (or an async call stage) with accumulated inclusive wall time,
// cardinality, and operator-specific extra counters (placeholder patches,
// tuple expansions, cancellations, registered calls, ...).
//
// Span trees are built and mutated by the single goroutine executing the
// query (the iterator protocol is sequential), then read after the query
// completes; no locking is needed or provided.
type Span struct {
	// Op is the operator's display name ("ReqSync", "DependentJoin", ...).
	Op string
	// Detail is the operator's parameter summary ("WebCount", "Count DESC").
	Detail string
	// Start is the wall-clock time of the first Open.
	Start time.Time
	// Dur is the inclusive wall time attributed to this subtree: the sum
	// of time spent inside this operator's Open/NextBatch/Close calls,
	// including everything its children did beneath those calls.
	Dur time.Duration
	// Opens counts Open calls (dependent joins re-open their inner
	// subtree once per outer binding).
	Opens int64
	// Rows counts tuples this operator produced.
	Rows int64
	// Extra carries operator-specific counters, e.g. ReqSync's
	// patched/expanded/canceled or AEVScan's registered calls.
	Extra map[string]int64
	// Node identifies the process that produced the span ("coord", "w1").
	// Empty for local spans; set on subtrees reconstructed from a remote
	// process's wire form.
	Node string
	// Children mirror the plan tree.
	Children []*Span
	// AsyncChildren are spans for work that ran concurrently with (not
	// nested inside) this operator's iterator calls: pump call timelines
	// attached to the AEVScan that registered them, cache-peer round
	// trips, remote subtrees. Their durations overlap the parent's, so
	// they are excluded from Self and Shape — the per-operator self-time
	// sum stays exact while the off-tree work becomes visible.
	AsyncChildren []*Span
}

// NewSpan creates a span.
func NewSpan(op, detail string) *Span {
	return &Span{Op: op, Detail: detail}
}

// AddChild appends a child span and returns it.
func (s *Span) AddChild(c *Span) *Span {
	s.Children = append(s.Children, c)
	return c
}

// AddAsyncChild attaches a span for concurrent (non-nested) work; see
// the AsyncChildren field. Safe to call with nil (no-op).
func (s *Span) AddAsyncChild(c *Span) *Span {
	if c != nil {
		s.AsyncChildren = append(s.AsyncChildren, c)
	}
	return c
}

// AddExtra accumulates an operator-specific counter.
func (s *Span) AddExtra(key string, n int64) {
	if n == 0 {
		return
	}
	if s.Extra == nil {
		s.Extra = make(map[string]int64)
	}
	s.Extra[key] += n
}

// SetExtra overwrites an operator-specific counter with a snapshot
// value. The instrumented executor uses this on every Close: operator
// counters are cumulative over the operator's life, so the latest
// snapshot is the truth even when a dependent join closes its inner
// subtree once per outer binding.
func (s *Span) SetExtra(key string, n int64) {
	if n == 0 && s.Extra[key] == 0 {
		return
	}
	if s.Extra == nil {
		s.Extra = make(map[string]int64)
	}
	s.Extra[key] = n
}

// Self is the span's exclusive time: inclusive time minus the inclusive
// time of its children. Blocking in ReqSync.NextBatch waiting on the pump is
// ReqSync self time — exactly the "where did the wall-clock go" signal.
func (s *Span) Self() time.Duration {
	d := s.Dur
	for _, c := range s.Children {
		d -= c.Dur
	}
	if d < 0 {
		d = 0
	}
	return d
}

// Walk visits the span and its plan-tree descendants preorder. Async
// children are skipped so the timing invariants Walk-based consumers
// check (self-time sums, inclusive bounds) hold; use WalkAll to see
// everything.
func (s *Span) Walk(fn func(*Span)) {
	fn(s)
	for _, c := range s.Children {
		c.Walk(fn)
	}
}

// WalkAll visits the span and every descendant — plan-tree and async —
// preorder.
func (s *Span) WalkAll(fn func(*Span)) {
	fn(s)
	for _, c := range s.Children {
		c.WalkAll(fn)
	}
	for _, c := range s.AsyncChildren {
		c.WalkAll(fn)
	}
}

// Shape renders the nesting structure ("ReqSync(DependentJoin(Scan,AEVScan))"),
// mirroring exec.Shape so tests can compare a trace against its plan.
func (s *Span) Shape() string {
	if len(s.Children) == 0 {
		return s.Op
	}
	parts := make([]string, len(s.Children))
	for i, c := range s.Children {
		parts[i] = c.Shape()
	}
	return s.Op + "(" + strings.Join(parts, ",") + ")"
}

// Render formats the trace as an indented tree, one operator per line
// with inclusive time, self time, cardinality, and extras — the body of
// EXPLAIN ANALYZE.
func (s *Span) Render() string {
	var b strings.Builder
	s.renderInto(&b, 0)
	return b.String()
}

func (s *Span) renderInto(b *strings.Builder, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(s.Op)
	if s.Detail != "" {
		b.WriteString(": ")
		b.WriteString(s.Detail)
	}
	fmt.Fprintf(b, "  (time=%s self=%s rows=%d", fmtDur(s.Dur), fmtDur(s.Self()), s.Rows)
	if s.Opens > 1 {
		fmt.Fprintf(b, " opens=%d", s.Opens)
	}
	for _, k := range sortedKeys(s.Extra) {
		fmt.Fprintf(b, " %s=%d", k, s.Extra[k])
	}
	b.WriteString(")\n")
	for _, c := range s.Children {
		c.renderInto(b, depth+1)
	}
	for _, c := range s.AsyncChildren {
		b.WriteString(strings.Repeat("  ", depth+1))
		b.WriteString("~ ") // concurrent with the parent, not nested inside it
		var ab strings.Builder
		c.renderInto(&ab, 0)
		b.WriteString(strings.ReplaceAll(strings.TrimRight(ab.String(), "\n"), "\n", "\n"+strings.Repeat("  ", depth+1)+"~ "))
		b.WriteByte('\n')
	}
}

func sortedKeys[T any](m map[string]T) []string {
	if len(m) == 0 {
		return nil
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// fmtDur rounds durations for display without drowning the tree in
// nanosecond noise.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

// SpanJSON is the wire form of a span tree (wsqd's ?trace=1 response).
// Times are microseconds; Start is the offset from the root span's
// start, so traces are stable under clock representation.
type SpanJSON struct {
	Op      string  `json:"op"`
	Detail  string  `json:"detail,omitempty"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
	SelfUS  float64 `json:"self_us"`
	Rows    int64   `json:"rows"`
	Opens   int64   `json:"opens,omitempty"`
	// Node identifies the process that produced this span ("coord",
	// "w1"); set by the stitching layer on remote roots.
	Node string `json:"node,omitempty"`
	// Async marks spans whose duration overlaps (rather than nests
	// inside) the parent's — pump call timelines, peer round trips.
	Async    bool             `json:"async,omitempty"`
	Extra    map[string]int64 `json:"extra,omitempty"`
	Children []*SpanJSON      `json:"children,omitempty"`
}

// JSON converts the span tree to its wire form.
func (s *Span) JSON() *SpanJSON {
	return s.jsonFrom(s.Start)
}

func (s *Span) jsonFrom(epoch time.Time) *SpanJSON {
	out := &SpanJSON{
		Op:      s.Op,
		Detail:  s.Detail,
		StartUS: float64(s.Start.Sub(epoch).Microseconds()),
		DurUS:   float64(s.Dur.Microseconds()),
		SelfUS:  float64(s.Self().Microseconds()),
		Rows:    s.Rows,
		Opens:   s.Opens,
		Node:    s.Node,
		Extra:   s.Extra,
	}
	for _, c := range s.Children {
		out.Children = append(out.Children, c.jsonFrom(epoch))
	}
	for _, c := range s.AsyncChildren {
		cj := c.jsonFrom(epoch)
		cj.Async = true
		out.Children = append(out.Children, cj)
	}
	return out
}

// SpanFromJSON reconstructs an in-memory span tree from its wire form,
// anchoring the wire root's start at base (the receiver's best local
// estimate of when the remote work began — typically the moment the HTTP
// request that carried it was issued). Child offsets are preserved
// relative to the root; Async-marked children become AsyncChildren.
func SpanFromJSON(j *SpanJSON, base time.Time) *Span {
	if j == nil {
		return nil
	}
	return spanFromJSON(j, base, j.StartUS)
}

func spanFromJSON(j *SpanJSON, base time.Time, epochUS float64) *Span {
	s := &Span{
		Op:     j.Op,
		Detail: j.Detail,
		Start:  base.Add(time.Duration(j.StartUS-epochUS) * time.Microsecond),
		Dur:    time.Duration(j.DurUS) * time.Microsecond,
		Opens:  j.Opens,
		Rows:   j.Rows,
		Node:   j.Node,
		Extra:  j.Extra,
	}
	for _, c := range j.Children {
		cs := spanFromJSON(c, base, epochUS)
		if c.Async {
			s.AsyncChildren = append(s.AsyncChildren, cs)
		} else {
			s.Children = append(s.Children, cs)
		}
	}
	return s
}

// Walk visits the wire-form span and all descendants preorder.
func (j *SpanJSON) Walk(fn func(*SpanJSON)) {
	if j == nil {
		return
	}
	fn(j)
	for _, c := range j.Children {
		c.Walk(fn)
	}
}

// CountSpans returns the number of spans in the tree.
func (j *SpanJSON) CountSpans() int {
	n := 0
	j.Walk(func(*SpanJSON) { n++ })
	return n
}

// Find returns the first span (preorder) with the given Op, or nil.
func (j *SpanJSON) Find(op string) *SpanJSON {
	var found *SpanJSON
	j.Walk(func(s *SpanJSON) {
		if found == nil && s.Op == op {
			found = s
		}
	})
	return found
}

// Rebase shifts every start offset in the tree by deltaUS. Stitching
// uses it to express a remote subtree's offsets (relative to the remote
// root's start) in the stitched root's timeline: delta is the parent
// span's start offset, the best cross-process estimate available
// without synchronized clocks.
func (j *SpanJSON) Rebase(deltaUS float64) {
	j.Walk(func(s *SpanJSON) { s.StartUS += deltaUS })
}

// Graft attaches a remote subtree under this span: the child's offsets
// are rebased onto this span's timeline and tagged with the producing
// node's name. The remote work happened inside this span's duration (an
// HTTP round trip the parent timed), so the child nests synchronously.
func (j *SpanJSON) Graft(child *SpanJSON, node string) {
	if child == nil {
		return
	}
	child.Rebase(j.StartUS)
	if node != "" && child.Node == "" {
		child.Node = node
	}
	j.Children = append(j.Children, child)
}
