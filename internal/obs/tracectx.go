package obs

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
)

// Distributed tracing context (DESIGN.md §8). A query entering the tier
// is assigned a W3C-traceparent-style identity at the edge (coordinator
// or wsqd); the identity rides the request's context.Context through
// every layer and across process hops as a `traceparent` HTTP header.
// Each process builds its Span tree where the work happens and ships it
// back encoded; the receiver decodes it, anchors it at the start of the
// round trip that carried it (Span.AnchorAt) and adds it under the span
// that timed that round trip.
//
// A hot path that is not being traced pays exactly one context.Value
// lookup returning nil (no allocation, no atomic).

// TraceCtx is one sampled query's trace identity, carried by
// context.Context via WithTrace/SampledTrace. A query that is not traced
// carries none.
type TraceCtx struct {
	// TraceID is the 32-hex-digit tier-wide identity.
	TraceID string
}

// NewTraceCtx mints a trace context with a fresh identity.
func NewTraceCtx() *TraceCtx {
	return &TraceCtx{TraceID: NewTraceID()}
}

type traceCtxKey struct{}

// WithTrace attaches a trace context to ctx.
func WithTrace(ctx context.Context, t *TraceCtx) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, traceCtxKey{}, t)
}

// SampledTrace returns the trace context carried by ctx, or nil. This is
// the hot-path gate: it allocates nothing and does nothing but a value
// lookup, so instrumentation sites can call it unconditionally.
func SampledTrace(ctx context.Context) *TraceCtx {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(traceCtxKey{}).(*TraceCtx)
	return t
}

// UpstreamTrace returns the trace context a request's sampled
// traceparent header propagates, or nil when the request carries none,
// an unsampled one or a malformed one. A request without the header
// costs one map lookup.
func UpstreamTrace(h http.Header) *TraceCtx {
	v := h.Get(TraceparentHeader)
	if v == "" {
		return nil
	}
	if tid, _, sampled, err := ParseTraceparent(v); err == nil && sampled {
		return &TraceCtx{TraceID: tid}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Identifiers

// idState seeds span/trace identifiers: a process-unique random prefix
// (crypto/rand once at startup; the seeded-randomness rule only governs
// math/rand, and trace IDs must differ across processes by construction)
// plus an atomic counter, so minting an ID on the query path costs two
// atomics and one hex encode — no per-ID entropy read.
var idState struct {
	prefix [8]byte
	ctr    atomic.Uint64
	once   sync.Once
}

func idSeed() {
	idState.once.Do(func() {
		if _, err := crand.Read(idState.prefix[:]); err != nil {
			// Entropy exhaustion is effectively impossible; fall back to a
			// fixed prefix rather than failing query serving.
			copy(idState.prefix[:], "wsqtrace")
		}
	})
}

// NewTraceID returns a 32-hex-digit (16-byte) trace identifier.
func NewTraceID() string {
	idSeed()
	var b [16]byte
	copy(b[:8], idState.prefix[:])
	binary.BigEndian.PutUint64(b[8:], idState.ctr.Add(1))
	return hex.EncodeToString(b[:])
}

// newSpanID returns a 16-hex-digit (8-byte) span identifier.
func newSpanID() string {
	idSeed()
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], idState.ctr.Add(1)^binary.BigEndian.Uint64(idState.prefix[:]))
	return hex.EncodeToString(b[:])
}

// ---------------------------------------------------------------------------
// Wire format

// TraceparentHeader is the propagation header (W3C Trace Context), in
// the canonical form net/http keeps header names in, so looking it up
// on a request that lacks it allocates nothing.
const TraceparentHeader = "Traceparent"

// Traceparent renders the W3C wire form for one outgoing hop:
// 00-<trace-id>-<fresh parent-id>-01.
func (t *TraceCtx) Traceparent() string {
	return "00-" + t.TraceID + "-" + newSpanID() + "-01"
}

// ParseTraceparent parses the W3C header. It accepts version 00 and
// tolerates unknown future versions with the same layout, per spec.
func ParseTraceparent(h string) (traceID, spanID string, sampled bool, err error) {
	if len(h) != 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return "", "", false, fmt.Errorf("traceparent: bad layout %q", h)
	}
	version, tid, sid, flags := h[0:2], h[3:35], h[36:52], h[53:55]
	for _, part := range []string{version, tid, sid, flags} {
		if !isHexLower(part) {
			return "", "", false, fmt.Errorf("traceparent: non-hex field in %q", h)
		}
	}
	if version == "ff" {
		return "", "", false, fmt.Errorf("traceparent: forbidden version ff")
	}
	if tid == "00000000000000000000000000000000" || sid == "0000000000000000" {
		return "", "", false, fmt.Errorf("traceparent: zero id in %q", h)
	}
	var f byte
	fmt.Sscanf(flags, "%02x", &f)
	return tid, sid, f&1 == 1, nil
}

func isHexLower(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Head sampling

// Sampler makes the head-sampling decision for queries that did not ask
// for a trace explicitly: 1 in Every queries is traced. The decision is
// deterministic (an atomic counter, not a random draw) so a fixed
// workload samples a fixed, reproducible subset — in keeping with the
// repo's seeded-randomness discipline.
type Sampler struct {
	every uint64
	n     atomic.Uint64
}

// NewSampler returns a sampler tracing 1 in every queries. every <= 0
// never samples; every == 1 samples everything.
func NewSampler(every int) *Sampler {
	if every < 0 {
		every = 0
	}
	return &Sampler{every: uint64(every)}
}

// Sample reports whether this query should be head-sampled.
func (s *Sampler) Sample() bool {
	if s == nil || s.every == 0 {
		return false
	}
	if s.every == 1 {
		return true
	}
	return s.n.Add(1)%s.every == 1
}
