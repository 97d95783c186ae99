package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCounterAndGauge: a Counter counts and resets; a gauge family
// reads its owner's value when the registry is encoded, not before.
func TestCounterAndGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	c.Reset()
	if got := c.Value(); got != 0 {
		t.Fatalf("counter after reset = %d, want 0", got)
	}

	reg := NewRegistry()
	reg.GaugeFunc("g", "g", func() float64 { return float64(c.Value()) })
	c.Add(7)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if want := "g 7\n"; !strings.Contains(b.String(), want) {
		t.Fatalf("gauge not read at encode time:\n%s", b.String())
	}
}

// TestHistogramBucketBoundaries pins the "le" semantics exactly: an
// observation equal to a bound lands in that bound's bucket (inclusive
// upper bound), one infinitesimally above lands in the next.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 5})
	obs := []struct {
		v      float64
		bucket int // index into counts (3 finite + 1 inf)
	}{
		{0, 0}, {0.5, 0}, {1, 0}, // at the bound: le=1
		{1.0000001, 1}, {2, 1},
		{2.5, 2}, {5, 2},
		{5.0001, 3}, {100, 3}, // +Inf
	}
	want := make([]int64, 4)
	for _, o := range obs {
		h.Observe(o.v)
		want[o.bucket]++
	}
	s := h.Snapshot()
	if len(s.Counts) != 4 {
		t.Fatalf("len(counts) = %d, want 4", len(s.Counts))
	}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, s.Counts[i], w)
		}
	}
	if s.Count != int64(len(obs)) {
		t.Errorf("count = %d, want %d", s.Count, len(obs))
	}
	var sum float64
	for _, o := range obs {
		sum += o.v
	}
	if math.Abs(s.Sum-sum) > 1e-9 {
		t.Errorf("sum = %g, want %g", s.Sum, sum)
	}
}

func TestHistogramDefaultBucketsSortedDeduped(t *testing.T) {
	h := NewHistogram(nil)
	if len(h.bounds) != len(DefBuckets) {
		t.Fatalf("default bounds = %d, want %d", len(h.bounds), len(DefBuckets))
	}
	h2 := NewHistogram([]float64{1, 1, 2, 2, 3})
	if len(h2.bounds) != 3 {
		t.Fatalf("deduped bounds = %v, want [1 2 3]", h2.bounds)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]float64{10, 20, 30, 40})
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Fatal("empty histogram quantile should be NaN")
	}
	// 100 observations uniform in (0, 40]: 25 per bucket.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) * 0.4)
	}
	if q := h.Quantile(0.5); math.Abs(q-20) > 1.0 {
		t.Errorf("p50 = %g, want ~20", q)
	}
	if q := h.Quantile(0.95); math.Abs(q-38) > 1.5 {
		t.Errorf("p95 = %g, want ~38", q)
	}
	// Everything beyond the last bound clamps to it.
	h2 := NewHistogram([]float64{1})
	h2.Observe(50)
	if q := h2.Quantile(0.99); q != 1 {
		t.Errorf("overflow quantile = %g, want clamp to 1", q)
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines;
// run under -race this is the data-race check, and the final counts must
// be exact (no lost increments).
func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram([]float64{0.25, 0.5, 0.75})
	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(float64(i%4) * 0.25) // 0, .25, .5, .75
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*perWorker {
		t.Fatalf("count = %d, want %d", s.Count, workers*perWorker)
	}
	for i, c := range s.Counts[:3] {
		// 0 and .25 both land in bucket 0.
		want := int64(workers * perWorker / 4)
		if i == 0 {
			want *= 2
		}
		if c != want {
			t.Errorf("bucket %d = %d, want %d", i, c, want)
		}
	}
	if s.Counts[3] != 0 {
		t.Errorf("+Inf bucket = %d, want 0", s.Counts[3])
	}
}

// TestCounterConcurrent hammers one counter from many goroutines while
// the registry encodes it; under -race this pins the scrape path against
// the hot path, and no increment may be lost.
func TestCounterConcurrent(t *testing.T) {
	var c Counter
	reg := NewRegistry()
	reg.CounterFunc("c_total", "test", func() float64 { return float64(c.Value()) })
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	var sb syncBuilder
	for i := 0; i < 10; i++ {
		if err := reg.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Errorf("count = %d, want 8000", got)
	}
}

// TestRegistryIdempotent: registering again under the same owner replaces
// that owner's series, so Observe may run twice; another owner adds its
// own, and never a duplicate; a name registered as another kind or label
// set panics.
func TestRegistryIdempotent(t *testing.T) {
	reg := NewRegistry()
	labels := []string{"engine", "op"}
	series := func(engine string, n float64) func() []Series[float64] {
		return func() []Series[float64] { return []Series[float64]{{Labels: []string{engine, "count"}, Value: n}} }
	}
	reg.CounterVecFunc("r_total", "r", labels, "a", series("a", 1))
	reg.CounterVecFunc("r_total", "r", labels, "a", series("a", 2))
	reg.CounterVecFunc("r_total", "r", labels, "b", series("b", 3))
	reg.CounterVecFunc("r_total", "r", labels, "c", series("a", 9)) // a's series: the first owner's is written
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `r_total{engine="a",op="count"} 2
r_total{engine="b",op="count"} 3
`
	if got := b.String(); !strings.HasSuffix(got, want) || strings.Count(got, "r_total{") != 2 {
		t.Fatalf("got:\n%swant the samples:\n%s", got, want)
	}
	for _, bad := range []func(){
		func() { reg.GaugeVecFunc("r_total", "r", labels, "c", series("c", 1)) },
		func() { reg.CounterVecFunc("r_total", "r", []string{"engine"}, "c", series("c", 1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("kind or label mismatch must panic")
				}
			}()
			bad()
		}()
	}
}

func TestGaugeFuncReplaced(t *testing.T) {
	reg := NewRegistry()
	v := 1.0
	reg.GaugeFunc("live", "live value", func() float64 { return v })
	reg.GaugeFunc("live", "live value", func() float64 { return v * 2 })
	var sb syncBuilder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if want := "live 2\n"; !strings.Contains(sb.String(), want) {
		t.Fatalf("output missing %q:\n%s", want, sb.String())
	}
}

func TestHistogramObserveDuration(t *testing.T) {
	h := NewHistogram([]float64{0.5, 1.5})
	h.ObserveDuration(time.Second)
	s := h.Snapshot()
	if s.Counts[1] != 1 {
		t.Fatalf("1s should land in the le=1.5 bucket: %v", s.Counts)
	}
}

type syncBuilder struct {
	mu sync.Mutex
	b  []byte
}

func (s *syncBuilder) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.b = append(s.b, p...)
	return len(p), nil
}
func (s *syncBuilder) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return string(s.b)
}
