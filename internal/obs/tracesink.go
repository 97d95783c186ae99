package obs

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"
)

// StoredTrace is one captured query trace as kept by the TraceSink ring
// buffer and served at /debug/traces.
type StoredTrace struct {
	TraceID   string    `json:"trace_id"`
	SQL       string    `json:"sql,omitempty"`
	Node      string    `json:"node,omitempty"`
	StartedAt time.Time `json:"started_at"`
	ElapsedMS float64   `json:"elapsed_ms"`
	Error     string    `json:"error,omitempty"`
	// Slow marks traces captured by the slow-tail policy (elapsed over
	// the server's slow-trace threshold) rather than head sampling.
	Slow bool  `json:"slow,omitempty"`
	Root *Span `json:"root,omitempty"`
}

// TraceSink retains recent sampled traces in memory for /debug/traces.
// Two segments share the buffer: a ring of the most recent traces
// (whatever head sampling captured) and a smaller retained segment for
// error/slow traces, so an interesting tail capture survives being
// pushed out by ordinary traffic.
type TraceSink struct {
	mu       sync.Mutex
	recent   []*StoredTrace // ring, newest overwrite oldest
	pos      int
	retained []*StoredTrace // error/slow ring
	rpos     int
	total    uint64
}

// NewTraceSink creates a sink keeping the 64 most recent traces and the
// 32 most recent error or slow ones.
func NewTraceSink() *TraceSink {
	return &TraceSink{
		recent:   make([]*StoredTrace, 64),
		retained: make([]*StoredTrace, 32),
	}
}

// TruncateSQL bounds the SQL text a stored trace, a trace's root detail
// or a request-log line carries, so one giant statement cannot bloat
// them.
func TruncateSQL(sql string) string {
	const max = 500
	if len(sql) <= max {
		return sql
	}
	return sql[:max] + "..."
}

// Add stores a captured trace. Error and slow traces additionally enter
// the retained segment. Safe for concurrent use.
func (ts *TraceSink) Add(t *StoredTrace) {
	if ts == nil || t == nil {
		return
	}
	ts.mu.Lock()
	ts.recent[ts.pos] = t
	ts.pos = (ts.pos + 1) % len(ts.recent)
	if t.Error != "" || t.Slow {
		ts.retained[ts.rpos] = t
		ts.rpos = (ts.rpos + 1) % len(ts.retained)
	}
	ts.total++
	ts.mu.Unlock()
}

// Snapshot returns the stored traces, newest first, recent segment
// followed by any retained error/slow traces not already in the recent
// segment.
func (ts *TraceSink) Snapshot() []*StoredTrace {
	if ts == nil {
		return nil
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	seen := make(map[*StoredTrace]bool)
	var out []*StoredTrace
	collect := func(ring []*StoredTrace, pos int) {
		for i := 0; i < len(ring); i++ {
			t := ring[(pos-1-i+2*len(ring))%len(ring)]
			if t == nil || seen[t] {
				continue
			}
			seen[t] = true
			out = append(out, t)
		}
	}
	collect(ts.recent, ts.pos)
	collect(ts.retained, ts.rpos)
	return out
}

// Find returns the stored trace with the given trace ID, or nil.
func (ts *TraceSink) Find(traceID string) *StoredTrace {
	for _, t := range ts.Snapshot() {
		if t.TraceID == traceID {
			return t
		}
	}
	return nil
}

// Total returns the number of traces ever added (including ones since
// evicted from the rings).
func (ts *TraceSink) Total() uint64 {
	if ts == nil {
		return 0
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.total
}

// ServeHTTP implements /debug/traces: the stored traces as JSON, newest
// first. ?trace_id=... selects a single trace; ?errors=1 restricts to
// error/slow captures.
func (ts *TraceSink) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if id := r.URL.Query().Get("trace_id"); id != "" {
		t := ts.Find(id)
		if t == nil {
			http.Error(w, `{"error":"trace not found"}`, http.StatusNotFound)
			return
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(t)
		return
	}
	traces := ts.Snapshot()
	if r.URL.Query().Get("errors") == "1" {
		var kept []*StoredTrace
		for _, t := range traces {
			if t.Error != "" || t.Slow {
				kept = append(kept, t)
			}
		}
		traces = kept
	}
	resp := struct {
		Total  uint64         `json:"total_captured"`
		Traces []*StoredTrace `json:"traces"`
	}{ts.Total(), traces}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(resp)
}
