package obs

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	tc := NewTraceCtx()
	if len(tc.TraceID) != 32 {
		t.Fatalf("trace id %q: want 32 hex digits", tc.TraceID)
	}
	h := tc.Traceparent()
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
	if tc.Traceparent() == h {
		t.Error("two hops share a parent id")
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
	if SampledTrace(context.Background()) != nil {
		t.Error("SampledTrace on bare context not nil")
	}
	tc := NewTraceCtx()
	ctx := WithTrace(context.Background(), tc)
	if SampledTrace(ctx) != tc {
		t.Error("trace context did not round-trip through context")
	}
}

// TestUpstreamTrace: only a well-formed, sampled traceparent header
// propagates a trace; its id becomes the local trace's id.
func TestUpstreamTrace(t *testing.T) {
	h := http.Header{}
	if UpstreamTrace(h) != nil {
		t.Error("request without traceparent propagated a trace")
	}
	id := strings.Repeat("ab", 16)
	for v, want := range map[string]bool{
		"00-" + id + "-0123456789abcdef-01": true,
		"00-" + id + "-0123456789abcdef-00": false, // unsampled
		"00-" + id + "-0123456789abcdef":    false, // malformed
	} {
		h.Set(TraceparentHeader, v)
		tc := UpstreamTrace(h)
		if (tc != nil) != want || tc != nil && tc.TraceID != id {
			t.Errorf("UpstreamTrace(%q) = %+v, want propagated=%v", v, tc, want)
		}
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

	// The upstream-traceparent check every request pays.
	hdr := http.Header{"Content-Type": {"application/json"}}
	if n := testing.AllocsPerRun(100, func() {
		if UpstreamTrace(hdr) != nil {
			t.Fatal("propagated?")
		}
	}); n != 0 {
		t.Errorf("UpstreamTrace without the header: %.1f allocs/op, want 0", n)
	}

	h := NewHistogram(nil)
	if n := testing.AllocsPerRun(100, func() { h.Observe(0.01) }); n != 0 {
		t.Errorf("Histogram.Observe: %.1f allocs/op, want 0", n)
	}
}

func TestTraceSink(t *testing.T) {
	sink := NewTraceSink()
	id := func(prefix string, i int) string { return fmt.Sprintf("%s%031d", prefix, i) }
	for i := 0; i < 66; i++ {
		sink.Add(&StoredTrace{TraceID: id("a", i), StartedAt: time.Now()})
	}
	if sink.Total() != 66 {
		t.Errorf("Total = %d, want 66", sink.Total())
	}
	snap := sink.Snapshot()
	if len(snap) != 64 {
		t.Errorf("ring kept %d, want 64", len(snap))
	}
	// Newest first.
	if snap[0].TraceID != id("a", 65) {
		t.Errorf("newest = %q", snap[0].TraceID)
	}
	// Oldest plain traces were evicted.
	if sink.Find(id("a", 1)) != nil {
		t.Error("evicted trace still findable")
	}

	// Error and slow traces go to the retained ring and survive churn.
	errID, slowID := id("b", 0), id("d", 0)
	sink.Add(&StoredTrace{TraceID: errID, Error: "boom"})
	sink.Add(&StoredTrace{TraceID: slowID, Slow: true})
	for i := 0; i < 100; i++ {
		sink.Add(&StoredTrace{TraceID: id("c", i)})
	}
	if sink.Find(errID) == nil {
		t.Error("error trace evicted from retained ring")
	}
	if sink.Find(slowID) == nil {
		t.Error("slow trace evicted from retained ring")
	}
	// The retained ring holds 32: the 33rd error pushes the first out.
	for i := 0; i < 31; i++ {
		sink.Add(&StoredTrace{TraceID: id("e", i), Error: "boom"})
	}
	if sink.Find(errID) != nil || sink.Find(slowID) == nil {
		t.Error("retained ring does not hold 32 error/slow traces")
	}
}
