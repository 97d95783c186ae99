package obs

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func sampleTrace() *Span {
	root := NewSpan("ReqSync", "")
	root.Start = time.Unix(100, 0)
	root.Dur = 100 * time.Millisecond
	root.Rows = 50
	root.Opens = 1
	root.AddExtra("patched", 48)
	root.AddExtra("expanded", 2)
	join := root.AddChild(NewSpan("DependentJoin", ""))
	join.Start = time.Unix(100, 0).Add(time.Millisecond)
	join.Dur = 30 * time.Millisecond
	join.Rows = 50
	scan := join.AddChild(NewSpan("Scan", "States"))
	scan.Dur = 5 * time.Millisecond
	scan.Rows = 50
	aev := join.AddChild(NewSpan("AEVScan", "WebCount"))
	aev.Dur = 10 * time.Millisecond
	aev.Rows = 50
	aev.AddExtra("calls", 50)
	return root
}

func TestSpanShapeAndSelf(t *testing.T) {
	root := sampleTrace()
	if got, want := root.Shape(), "ReqSync(DependentJoin(Scan,AEVScan))"; got != want {
		t.Errorf("shape = %q, want %q", got, want)
	}
	// Self = inclusive minus children: 100ms - 30ms = 70ms for the root;
	// the join excludes its two leaves.
	if got, want := root.Self(), 70*time.Millisecond; got != want {
		t.Errorf("root self = %v, want %v", got, want)
	}
	if got, want := root.Children[0].Self(), 15*time.Millisecond; got != want {
		t.Errorf("join self = %v, want %v", got, want)
	}
}

func TestSpanRender(t *testing.T) {
	out := sampleTrace().Render()
	for _, want := range []string{
		"ReqSync  (time=100.0ms self=70.0ms rows=50 expanded=2 patched=48)",
		"  DependentJoin  (time=30.0ms self=15.0ms rows=50)",
		"    Scan: States  (time=5.0ms",
		"    AEVScan: WebCount  (time=10.0ms self=10.0ms rows=50 calls=50)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	// Indentation mirrors tree depth.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("want 4 lines, got %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[3], "    ") {
		t.Errorf("leaf not indented: %q", lines[3])
	}
}

func TestSpanWireRoundTrip(t *testing.T) {
	raw, err := json.Marshal(sampleTrace())
	if err != nil {
		t.Fatal(err)
	}
	var back spanWire
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Op != "ReqSync" || len(back.Children) != 1 || len(back.Children[0].Children) != 2 {
		t.Fatalf("round-trip lost structure: %s", raw)
	}
	if back.DurUS != 100000 {
		t.Errorf("dur_us = %g, want 100000", back.DurUS)
	}
	// Child starts are offsets from the root's start.
	if got := back.Children[0].StartUS; got != 1000 {
		t.Errorf("child start_us = %g, want 1000", got)
	}
	if back.Children[0].Children[1].Extra["calls"] != 50 {
		t.Errorf("extras lost: %s", raw)
	}
}

func TestWalk(t *testing.T) {
	var ops []string
	sampleTrace().Walk(func(s *Span) { ops = append(ops, s.Op) })
	want := []string{"ReqSync", "DependentJoin", "Scan", "AEVScan"}
	if len(ops) != len(want) {
		t.Fatalf("walk visited %v", ops)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Fatalf("walk order %v, want %v", ops, want)
		}
	}
}
