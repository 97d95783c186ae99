package core

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/sqlparse"
)

// TestAsyncPumpSpansAttachToIssuingScan: under a sampled trace context
// the pump's per-call spans appear as *async* children of the AEVScan
// that issued them — visible in WalkAll and the wire form, but invisible
// to Shape and self-time accounting, so the plan-shape and timing
// invariants the other trace tests pin stay intact.
func TestAsyncPumpSpansAttachToIssuingScan(t *testing.T) {
	db := newPaperDB(t, Config{Async: true})
	sel, err := sqlparse.ParseSelect(tracePagesQuery)
	if err != nil {
		t.Fatal(err)
	}
	op, err := db.Plan(sel)
	if err != nil {
		t.Fatal(err)
	}
	want := exec.Shape(op)

	tc := obs.NewTraceCtx()
	ctx := obs.WithTrace(context.Background(), tc)
	res, err := db.QueryContextOpts(ctx, tracePagesQuery, QueryOptions{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("no trace returned")
	}

	// Shape sees only the plan tree: identical to the untraced contract.
	if got := res.Trace.Shape(); got != want {
		t.Errorf("sampled-query shape = %s, want plan shape %s", got, want)
	}

	aev := findSpan(res.Trace, "AEVScan")
	if aev == nil {
		t.Fatalf("no AEVScan span in:\n%s", res.Trace.Render())
	}
	if len(aev.AsyncChildren) == 0 {
		t.Fatal("AEVScan has no async pump.call children under a sampled context")
	}
	for _, c := range aev.AsyncChildren {
		if c.Op != "pump.call" {
			t.Errorf("async child op = %q, want pump.call", c.Op)
		}
	}

	// Walk must not see the async spans; WalkAll must.
	res.Trace.Walk(func(s *obs.Span) {
		if s.Op == "pump.call" || strings.HasPrefix(s.Op, "pump.") {
			t.Errorf("Walk visited async span %s", s.Op)
		}
	})
	pumpSpans := 0
	res.Trace.WalkAll(func(s *obs.Span) {
		if s.Op == "pump.call" {
			pumpSpans++
		}
	})
	// The dependent join issues one WebPages call per state.
	if pumpSpans != len(aev.AsyncChildren) {
		t.Errorf("WalkAll saw %d pump.call spans, AEVScan holds %d", pumpSpans, len(aev.AsyncChildren))
	}

	// Self-time accounting ignores async children (their durations
	// overlap the operators); the wire form still carries them, flagged.
	raw, err := json.Marshal(res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	asyncOnWire := strings.Count(string(raw), `"async":true`)
	if asyncOnWire != pumpSpans || strings.Count(string(raw), `{"op":"pump.call",`) != pumpSpans {
		t.Errorf("wire form carries %d async spans, want %d pump.call spans: %s", asyncOnWire, pumpSpans, raw)
	}

	// Without a sampled context the same query attaches nothing.
	res2, err := db.QueryContextOpts(context.Background(), tracePagesQuery, QueryOptions{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	plain := findSpan(res2.Trace, "AEVScan")
	if plain == nil {
		t.Fatal("no AEVScan span in untraced-context query")
	}
	if len(plain.AsyncChildren) != 0 {
		t.Errorf("unsampled query attached %d async children", len(plain.AsyncChildren))
	}
}
