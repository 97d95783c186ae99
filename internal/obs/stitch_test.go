package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func sampleTree(start time.Time) *Span {
	root := NewSpan("wsqd.query", "w1")
	root.Start = start
	root.Dur = 10 * time.Millisecond
	child := root.AddChild(&Span{Op: "ReqSync", Start: start.Add(time.Millisecond), Dur: 8 * time.Millisecond})
	child.AddChild(&Span{Op: "AEVScan", Start: start.Add(2 * time.Millisecond), Dur: 3 * time.Millisecond})
	child.AddAsyncChild(&Span{Op: "pump.call", Detail: "altavista", Start: start.Add(2 * time.Millisecond), Dur: 6 * time.Millisecond})
	return root
}

func TestSpanWireAsyncChildren(t *testing.T) {
	raw, err := json.Marshal(sampleTree(time.Now()))
	if err != nil {
		t.Fatal(err)
	}
	var j spanWire
	if err := json.Unmarshal(raw, &j); err != nil {
		t.Fatal(err)
	}

	// Async children serialize inside Children with the async flag, so
	// one wire shape carries both relationships.
	rs := j.Children[0]
	if len(rs.Children) != 2 {
		t.Fatalf("ReqSync wire children = %d, want 2", len(rs.Children))
	}
	var pump *spanWire
	for _, c := range rs.Children {
		if c.Op == "pump.call" {
			pump = c
		}
	}
	if pump == nil || !pump.Async {
		t.Fatalf("pump.call child missing or not async: %+v", pump)
	}
	// Self time ignores async children: ReqSync's 8ms minus AEVScan's 3ms.
	if rs.SelfUS != 5000 {
		t.Errorf("ReqSync self = %vus, want 5000", rs.SelfUS)
	}
}

func TestSpanDecodeAnchorAt(t *testing.T) {
	start := time.Unix(1000, 0)
	wire, err := json.Marshal(sampleTree(start))
	if err != nil {
		t.Fatal(err)
	}
	var back Span
	if err := json.Unmarshal(wire, &back); err != nil {
		t.Fatal(err)
	}

	base := time.Unix(2000, 0)
	back.AnchorAt(base)
	if back.Op != "wsqd.query" || !back.Start.Equal(base) {
		t.Fatalf("root decoded as %s @ %v", back.Op, back.Start)
	}
	rs := back.Children[0]
	if len(rs.Children) != 1 || rs.Children[0].Op != "AEVScan" {
		t.Fatalf("sync children misplaced: %+v", rs.Children)
	}
	if len(rs.AsyncChildren) != 1 || rs.AsyncChildren[0].Op != "pump.call" {
		t.Fatalf("async children misplaced: %+v", rs.AsyncChildren)
	}
	// Relative offsets preserved: ReqSync started 1ms after the root, the
	// pump call 2ms after it.
	if got := rs.Start.Sub(back.Start); got != time.Millisecond {
		t.Errorf("ReqSync offset = %v, want 1ms", got)
	}
	if got := rs.AsyncChildren[0].Start.Sub(base); got != 2*time.Millisecond {
		t.Errorf("pump.call offset = %v, want 2ms", got)
	}
	if rs.AsyncChildren[0].Dur != 6*time.Millisecond {
		t.Errorf("pump.call dur = %v", rs.AsyncChildren[0].Dur)
	}
	// Re-encoding the anchored tree gives back the bytes it was decoded from.
	again, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(wire) {
		t.Errorf("re-encoded tree differs:\n%s\nwant\n%s", again, wire)
	}
}

// TestGraftRebases: a remote tree decoded and anchored at the start of
// the local span that timed its round trip encodes in the local root's
// timeline, its node tag kept.
func TestGraftRebases(t *testing.T) {
	remote := &Span{Op: "wsqd.query", Node: "w2", Start: time.Unix(50, 0), Dur: 3 * time.Millisecond}
	remote.AddChild(&Span{Op: "Scan", Start: time.Unix(50, 0).Add(100 * time.Microsecond), Dur: 200 * time.Microsecond})
	raw, err := json.Marshal(remote)
	if err != nil {
		t.Fatal(err)
	}

	at := time.Unix(1000, 0)
	root := &Span{Op: "coord.query", Start: at, Dur: 5 * time.Millisecond}
	att := root.AddChild(&Span{Op: "coord.attempt", Start: at.Add(500 * time.Microsecond), Dur: 4 * time.Millisecond})
	var got Span
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	got.AnchorAt(att.Start)
	att.AddChild(&got)

	raw, err = json.Marshal(root)
	if err != nil {
		t.Fatal(err)
	}
	var w spanWire
	if err := json.Unmarshal(raw, &w); err != nil {
		t.Fatal(err)
	}
	g := w.Children[0].Children[0]
	if g.Node != "w2" || g.StartUS != 500 || g.Children[0].StartUS != 600 {
		t.Errorf("grafted node %q at %v, child at %v; want w2 at 500, 600", g.Node, g.StartUS, g.Children[0].StartUS)
	}
	// The attempt's self time is what the remote work leaves of it.
	if w.Children[0].SelfUS != 1000 {
		t.Errorf("attempt self = %vus, want 1000", w.Children[0].SelfUS)
	}
}

func TestTraceSinkHTTP(t *testing.T) {
	sink := NewTraceSink()
	id := strings.Repeat("f", 32)
	sink.Add(&StoredTrace{
		TraceID:   id,
		SQL:       "SELECT 1",
		Node:      "w1",
		StartedAt: time.Unix(1000, 0),
		ElapsedMS: 1.5,
		Root:      &Span{Op: "wsqd.query", Dur: 1500 * time.Microsecond},
	})
	sink.Add(&StoredTrace{TraceID: strings.Repeat("0", 31) + "1", Error: "boom"})

	rec := httptest.NewRecorder()
	sink.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	var list struct {
		Total  int            `json:"total_captured"`
		Traces []*StoredTrace `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if list.Total != 2 || len(list.Traces) != 2 {
		t.Errorf("list: total=%d n=%d", list.Total, len(list.Traces))
	}

	rec = httptest.NewRecorder()
	sink.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?trace_id="+id, nil))
	var one StoredTrace
	if err := json.Unmarshal(rec.Body.Bytes(), &one); err != nil {
		t.Fatal(err)
	}
	if one.TraceID != id || one.Root == nil || one.Root.Op != "wsqd.query" {
		t.Errorf("lookup returned %+v", one)
	}

	rec = httptest.NewRecorder()
	sink.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?trace_id="+strings.Repeat("9", 32), nil))
	if rec.Code != 404 {
		t.Errorf("missing trace: status %d, want 404", rec.Code)
	}

	rec = httptest.NewRecorder()
	sink.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?errors=1", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Traces) != 1 || list.Traces[0].Error != "boom" {
		t.Errorf("errors filter returned %d traces", len(list.Traces))
	}
}
