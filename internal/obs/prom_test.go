package obs

import (
	"strings"
	"testing"
)

// TestWritePrometheusFormat pins the exact text exposition layout for
// one of each metric kind. Observed values are exactly representable in
// binary so the _sum line is stable.
func TestWritePrometheusFormat(t *testing.T) {
	reg := NewRegistry()
	reg.CounterFunc("wsq_queries_total", "Total queries.", func() float64 { return 3 })
	reg.GaugeFunc("wsq_active", "Active queries.", func() float64 { return 2 })
	reg.GaugeFunc("wsq_uptime_seconds", "Uptime.", func() float64 { return 1.5 })
	h := NewHistogram([]float64{0.125, 1})
	h.Observe(0.0625)
	h.Observe(0.5)
	h.Observe(5)
	reg.HistogramFunc("wsq_latency_seconds", "Query latency.", h.Snapshot)
	reg.CounterVecFunc("wsq_calls_total", "Calls by destination.", []string{"dest"}, "", func() []Series[float64] {
		return []Series[float64]{{Labels: []string{"altavista"}, Value: 7}}
	})

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP wsq_active Active queries.
# TYPE wsq_active gauge
wsq_active 2
# HELP wsq_calls_total Calls by destination.
# TYPE wsq_calls_total counter
wsq_calls_total{dest="altavista"} 7
# HELP wsq_latency_seconds Query latency.
# TYPE wsq_latency_seconds histogram
wsq_latency_seconds_bucket{le="0.125"} 1
wsq_latency_seconds_bucket{le="1"} 2
wsq_latency_seconds_bucket{le="+Inf"} 3
wsq_latency_seconds_sum 5.5625
wsq_latency_seconds_count 3
# HELP wsq_queries_total Total queries.
# TYPE wsq_queries_total counter
wsq_queries_total 3
# HELP wsq_uptime_seconds Uptime.
# TYPE wsq_uptime_seconds gauge
wsq_uptime_seconds 1.5
`
	if got := b.String(); got != want {
		t.Errorf("encoding mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if problems := LintExposition(b.String()); len(problems) != 0 {
		t.Errorf("lint problems: %v", problems)
	}
}

// TestHistogramVecFuncEncoding: two owners' series of one histogram family
// come out in label order, each with its full bucket/sum/count set.
func TestHistogramVecFuncEncoding(t *testing.T) {
	reg := NewRegistry()
	for _, o := range []struct {
		dest string
		v    float64
	}{{"b", 0.5}, {"a", 2}} {
		h := NewHistogram([]float64{1})
		h.Observe(o.v)
		reg.HistogramVecFunc("lat_seconds", "Per-dest latency.", []string{"dest"}, o.dest, func() []Series[HistSnapshot] {
			return []Series[HistSnapshot]{{Labels: []string{o.dest}, Value: h.Snapshot()}}
		})
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// Children sorted by label value, each with full bucket/sum/count set.
	iA := strings.Index(out, `lat_seconds_bucket{dest="a",le="1"} 0`)
	iB := strings.Index(out, `lat_seconds_bucket{dest="b",le="1"} 1`)
	if iA < 0 || iB < 0 || iA > iB {
		t.Fatalf("bad vec ordering or content:\n%s", out)
	}
	for _, want := range []string{
		`lat_seconds_bucket{dest="a",le="+Inf"} 1`,
		`lat_seconds_sum{dest="a"} 2`,
		`lat_seconds_count{dest="b"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if problems := LintExposition(out); len(problems) != 0 {
		t.Errorf("lint problems: %v", problems)
	}
}

func TestLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.CounterVecFunc("c_total", "", []string{"q"}, "", func() []Series[float64] {
		return []Series[float64]{{Labels: []string{`he said "hi"\` + "\n"}, Value: 1}}
	})
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `c_total{q="he said \"hi\"\\\n"} 1`
	if !strings.Contains(b.String(), want) {
		t.Fatalf("escaping wrong:\n%s", b.String())
	}
}

func TestLintExpositionCatchesGarbage(t *testing.T) {
	if p := LintExposition("this is not prometheus\n"); len(p) == 0 {
		t.Fatal("lint should reject garbage")
	}
	// +Inf bucket / count mismatch.
	bad := "h_bucket{le=\"+Inf\"} 2\nh_count 3\n"
	if p := LintExposition(bad); len(p) == 0 {
		t.Fatal("lint should catch +Inf/count mismatch")
	}
}

func TestLintExpositionAcceptsFullRegistry(t *testing.T) {
	reg := NewRegistry()
	x, y := NewHistogram(nil), NewHistogram(nil)
	for i := 0; i < 50; i++ {
		x.Observe(float64(i) * 0.01)
		y.Observe(float64(i))
	}
	reg.HistogramVecFunc("h_seconds", "h", []string{"dest"}, "", func() []Series[HistSnapshot] {
		return []Series[HistSnapshot]{{Labels: []string{"y"}, Value: y.Snapshot()}, {Labels: []string{"x"}, Value: x.Snapshot()}}
	})
	reg.CounterFunc("c_total", "c", func() float64 { return 5 })
	reg.GaugeVecFunc("g", "g", []string{"k"}, "", func() []Series[float64] {
		return []Series[float64]{{Labels: []string{"v"}, Value: -3}}
	})
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if problems := LintExposition(b.String()); len(problems) != 0 {
		t.Errorf("lint problems: %v", problems)
	}
}
