package obs

import (
	"encoding/json"
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
	// Set where a trace crosses processes: on the coordinator's spans
	// and on the root of each tree one process sends another.
	Node string
	// Children mirror the plan tree.
	Children []*Span
	// AsyncChildren are spans for work that ran concurrently with (not
	// nested inside) this operator's iterator calls — an AEVScan's pump
	// calls. Their durations overlap the parent's, so they are excluded
	// from Self and Shape — the per-operator self-time sum stays exact
	// while the off-tree work becomes visible.
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

// spanWire is the one wire form of a span tree: wsqd's ?trace=1 field,
// /debug/traces and the X-Wsq-Span header. Times are microseconds and
// start_us is the offset from the encoded root's start, so the bytes do
// not depend on the clock that produced them; async children travel
// among the children, flagged. Times stay float64 so an offset past
// 2^53 µs (a span never opened) prints as it always has.
type spanWire struct {
	Op       string           `json:"op"`
	Detail   string           `json:"detail,omitempty"`
	StartUS  float64          `json:"start_us"`
	DurUS    float64          `json:"dur_us"`
	SelfUS   float64          `json:"self_us"`
	Rows     int64            `json:"rows"`
	Opens    int64            `json:"opens,omitempty"`
	Node     string           `json:"node,omitempty"`
	Async    bool             `json:"async,omitempty"`
	Extra    map[string]int64 `json:"extra,omitempty"`
	Children []*spanWire      `json:"children,omitempty"`
}

// MarshalJSON encodes the tree rooted at s, its starts measured from
// s.Start.
func (s *Span) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.wire(s.Start, false))
}

func (s *Span) wire(epoch time.Time, async bool) *spanWire {
	w := &spanWire{
		Op:      s.Op,
		Detail:  s.Detail,
		StartUS: float64(s.Start.Sub(epoch).Microseconds()),
		DurUS:   float64(s.Dur.Microseconds()),
		SelfUS:  float64(s.Self().Microseconds()),
		Rows:    s.Rows,
		Opens:   s.Opens,
		Node:    s.Node,
		Async:   async,
		Extra:   s.Extra,
	}
	for _, c := range s.Children {
		w.Children = append(w.Children, c.wire(epoch, false))
	}
	for _, c := range s.AsyncChildren {
		w.Children = append(w.Children, c.wire(epoch, true))
	}
	return w
}

// UnmarshalJSON decodes a tree MarshalJSON encoded. The decoded starts
// keep their offsets from the root, which starts at the zero time until
// AnchorAt places the tree on the local clock.
func (s *Span) UnmarshalJSON(b []byte) error {
	var w spanWire
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*s = *w.span()
	return nil
}

func (w *spanWire) span() *Span {
	s := &Span{
		Op:     w.Op,
		Detail: w.Detail,
		Start:  time.Time{}.Add(time.Duration(w.StartUS) * time.Microsecond),
		Dur:    time.Duration(w.DurUS) * time.Microsecond,
		Opens:  w.Opens,
		Rows:   w.Rows,
		Node:   w.Node,
		Extra:  w.Extra,
	}
	for _, c := range w.Children {
		if c.Async {
			s.AsyncChildren = append(s.AsyncChildren, c.span())
		} else {
			s.Children = append(s.Children, c.span())
		}
	}
	return s
}

// AnchorAt moves the tree so that its root starts at t, every descendant
// keeping its offset from the root. A tree decoded from another process
// is anchored at the local time the round trip that carried it began:
// without synchronized clocks, the best estimate of when the remote work
// started.
func (s *Span) AnchorAt(t time.Time) {
	root := s.Start
	s.WalkAll(func(c *Span) { c.Start = t.Add(c.Start.Sub(root)) })
}
