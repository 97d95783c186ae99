package obs

import (
	"context"
	"strings"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	tc := NewTraceCtx()
	if len(tc.TraceID) != 32 {
		t.Fatalf("trace id %q: want 32 hex digits", tc.TraceID)
	}
	h := tc.Traceparent("")
	if len(h) != 55 {
		t.Fatalf("traceparent %q: len %d, want 55", h, len(h))
	}
	tid, sid, sampled, err := ParseTraceparent(h)
	if err != nil {
		t.Fatal(err)
	}
	if tid != tc.TraceID || !sampled || len(sid) != 16 {
		t.Errorf("parsed tid=%q sid=%q sampled=%v", tid, sid, sampled)
	}

	// Unsampled context renders flags 00.
	un := &TraceCtx{TraceID: tc.TraceID, Sampled: false}
	if _, _, s, err := ParseTraceparent(un.Traceparent("")); err != nil || s {
		t.Errorf("unsampled roundtrip: sampled=%v err=%v", s, err)
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	bad := []string{
		"",
		"00-short",
		"00-0123456789abcdef0123456789abcdef-0123456789abcdef-0x", // non-hex flags
		"ff-0123456789abcdef0123456789abcdef-0123456789abcdef-01", // forbidden version
		"00-00000000000000000000000000000000-0123456789abcdef-01", // zero trace id
		"00-0123456789abcdef0123456789abcdef-0000000000000000-01", // zero span id
		"00-0123456789ABCDEF0123456789abcdef-0123456789abcdef-01", // uppercase hex
		"00_0123456789abcdef0123456789abcdef-0123456789abcdef-01", // wrong separator
	}
	for _, h := range bad {
		if _, _, _, err := ParseTraceparent(h); err == nil {
			t.Errorf("ParseTraceparent(%q) accepted", h)
		}
	}
	good := "00-0123456789abcdef0123456789abcdef-0123456789abcdef-01"
	if _, _, sampled, err := ParseTraceparent(good); err != nil || !sampled {
		t.Errorf("ParseTraceparent(%q): sampled=%v err=%v", good, sampled, err)
	}
}

func TestTraceIDsUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if seen[id] {
			t.Fatalf("duplicate trace id %q", id)
		}
		seen[id] = true
	}
}

func TestSampler(t *testing.T) {
	if NewSampler(0).Sample() {
		t.Error("every=0 sampled")
	}
	var nilSampler *Sampler
	if nilSampler.Sample() {
		t.Error("nil sampler sampled")
	}
	always := NewSampler(1)
	for i := 0; i < 5; i++ {
		if !always.Sample() {
			t.Fatal("every=1 skipped a query")
		}
	}
	s := NewSampler(10)
	n := 0
	for i := 0; i < 1000; i++ {
		if s.Sample() {
			n++
		}
	}
	if n != 100 {
		t.Errorf("1-in-10 sampler fired %d of 1000", n)
	}
}

func TestTraceCtxPlumbing(t *testing.T) {
	if TraceFrom(context.Background()) != nil {
		t.Error("TraceFrom on bare context not nil")
	}
	tc := NewTraceCtx()
	ctx := WithTrace(context.Background(), tc)
	if TraceFrom(ctx) != tc || SampledTrace(ctx) != tc {
		t.Error("trace context did not round-trip through context")
	}
	tc.Sampled = false
	if SampledTrace(ctx) != nil {
		t.Error("SampledTrace returned an unsampled context")
	}

	tc2 := NewTraceCtx()
	tc2.AddRemote(&Span{Op: "x"})
	tc2.AddRemote(nil) // no-op
	if got := tc2.TakeRemote(); len(got) != 1 || got[0].Op != "x" {
		t.Errorf("TakeRemote = %v", got)
	}
	if got := tc2.TakeRemote(); got != nil {
		t.Errorf("second TakeRemote = %v, want nil", got)
	}
}

// TestUntracedZeroAlloc is the sampling-off overhead guard: the hot-path
// checks every query pays when tracing is off must not allocate.
func TestUntracedZeroAlloc(t *testing.T) {
	ctx := context.Background()
	if n := testing.AllocsPerRun(100, func() {
		if SampledTrace(ctx) != nil {
			t.Fatal("sampled?")
		}
	}); n != 0 {
		t.Errorf("SampledTrace on untraced ctx: %.1f allocs/op, want 0", n)
	}

	h := NewHistogram(nil)
	if n := testing.AllocsPerRun(100, func() { h.Observe(0.01) }); n != 0 {
		t.Errorf("Histogram.Observe: %.1f allocs/op, want 0", n)
	}
}

func TestTraceSink(t *testing.T) {
	sink := NewTraceSink(4, 2)
	for i := 0; i < 6; i++ {
		sink.Add(&StoredTrace{TraceID: strings.Repeat("a", 31) + string(rune('0'+i)), StartedAt: time.Now()})
	}
	if sink.Total() != 6 {
		t.Errorf("Total = %d, want 6", sink.Total())
	}
	snap := sink.Snapshot()
	if len(snap) != 4 {
		t.Errorf("ring kept %d, want 4", len(snap))
	}
	// Newest first.
	if snap[0].TraceID[31] != '5' {
		t.Errorf("newest = %q", snap[0].TraceID)
	}
	// Oldest plain traces were evicted.
	if sink.Find(strings.Repeat("a", 31)+"0") != nil {
		t.Error("evicted trace still findable")
	}

	// Error traces go to the retained ring and survive churn.
	errID := strings.Repeat("b", 32)
	sink.Add(&StoredTrace{TraceID: errID, Error: "boom"})
	for i := 0; i < 10; i++ {
		sink.Add(&StoredTrace{TraceID: strings.Repeat("c", 31) + string(rune('0'+i))})
	}
	if sink.Find(errID) == nil {
		t.Error("error trace evicted from retained ring")
	}
	slowID := strings.Repeat("d", 32)
	sink.Add(&StoredTrace{TraceID: slowID, Slow: true})
	for i := 0; i < 10; i++ {
		sink.Add(&StoredTrace{TraceID: strings.Repeat("e", 31) + string(rune('0'+i))})
	}
	if sink.Find(slowID) == nil {
		t.Error("slow trace evicted from retained ring")
	}
}
