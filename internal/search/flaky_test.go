package search

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// stubEngine is a minimal deterministic engine for wrapper tests.
type stubEngine struct{ name string }

func (s *stubEngine) Name() string { return s.name }
func (s *stubEngine) Count(q string) (int64, error) {
	return int64(len(q)), nil
}
func (s *stubEngine) Search(q string, k int) ([]Result, error) {
	out := make([]Result, 0, k)
	for i := 1; i <= k; i++ {
		out = append(out, Result{URL: q, Rank: i})
	}
	return out, nil
}
func (s *stubEngine) Fetch(url string) (string, error) {
	if url == "missing" {
		return "", ErrNotFound
	}
	return "body:" + url, nil
}

// faultSequence records the outcome kinds of n sequential Count calls.
func faultSequence(f *Flaky, n int) []string {
	out := make([]string, n)
	for i := range out {
		_, err := f.Count("abc")
		var fe *FaultError
		switch {
		case err == nil:
			out[i] = "ok"
		case errors.As(err, &fe):
			out[i] = string(fe.Kind)
		default:
			out[i] = "other"
		}
	}
	return out
}

func TestFlakySeededDeterminism(t *testing.T) {
	model := FaultModel{
		Count: FaultProfile{Transient: 0.3, RateLimit: 0.1, Hard: 0.05},
	}
	a := faultSequence(NewFlaky(&stubEngine{name: "e"}, model, NewRand(42)), 200)
	b := faultSequence(NewFlaky(&stubEngine{name: "e"}, model, NewRand(42)), 200)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at call %d: %s vs %s", i, a[i], b[i])
		}
	}
	c := faultSequence(NewFlaky(&stubEngine{name: "e"}, model, NewRand(43)), 200)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced an identical 200-call fault schedule")
	}
}

func TestFlakyFaultMixAndStats(t *testing.T) {
	model := FaultModel{Count: FaultProfile{Transient: 0.25, RateLimit: 0.1, Hard: 0.05}}
	f := NewFlaky(&stubEngine{name: "e"}, model, NewRand(7))
	const n = 2000
	seq := faultSequence(f, n)
	st := f.Stats()
	if st.Calls != n {
		t.Fatalf("Calls = %d, want %d", st.Calls, n)
	}
	counts := map[string]int64{}
	for _, k := range seq {
		counts[k]++
	}
	if counts["transient"] != st.Transient || counts["ratelimit"] != st.RateLimit || counts["hard"] != st.Hard {
		t.Fatalf("stats %+v disagree with observed %v", st, counts)
	}
	// With 2000 draws the observed rates should be within a factor of two
	// of the configured probabilities.
	check := func(name string, got int64, p float64) {
		want := p * n
		if float64(got) < want/2 || float64(got) > want*2 {
			t.Errorf("%s faults = %d, configured rate predicts ~%.0f", name, got, want)
		}
	}
	check("transient", st.Transient, 0.25)
	check("ratelimit", st.RateLimit, 0.1)
	check("hard", st.Hard, 0.05)

	f.ResetStats()
	if got := f.Stats(); got != (FlakyStats{}) {
		t.Fatalf("ResetStats left %+v", got)
	}
}

func TestFlakyErrorClassification(t *testing.T) {
	for _, tc := range []struct {
		kind      FaultKind
		transient bool
	}{
		{FaultTransient, true},
		{FaultRateLimit, true},
		{FaultHard, false},
	} {
		e := &FaultError{Engine: "e", Op: "count", Kind: tc.kind}
		if e.Transient() != tc.transient {
			t.Errorf("%s: Transient() = %v, want %v", tc.kind, e.Transient(), tc.transient)
		}
	}
}

func TestFlakyPassThroughWhenClean(t *testing.T) {
	f := NewFlaky(&stubEngine{name: "e"}, FaultModel{}, NewRand(1))
	if n, err := f.Count("abcd"); err != nil || n != 4 {
		t.Fatalf("Count = %d, %v", n, err)
	}
	res, err := f.Search("q", 3)
	if err != nil || len(res) != 3 {
		t.Fatalf("Search = %v, %v", res, err)
	}
	if body, err := f.Fetch("u"); err != nil || body != "body:u" {
		t.Fatalf("Fetch = %q, %v", body, err)
	}
	if _, err := f.Fetch("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Fetch(missing) = %v, want ErrNotFound", err)
	}
}

func TestFlakySlowTailAndStallDelay(t *testing.T) {
	model := FaultModel{
		Count:    FaultProfile{Stall: 1.0},
		StallFor: 30 * time.Millisecond,
	}
	f := NewFlaky(&stubEngine{name: "e"}, model, NewRand(1))
	start := time.Now()
	if _, err := f.Count("abc"); err != nil {
		t.Fatalf("stalled call should still succeed: %v", err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("stall slept only %v", d)
	}
	if st := f.Stats(); st.Stalls != 1 {
		t.Fatalf("Stalls = %d, want 1", st.Stalls)
	}
}

// TestFlakySharedRandConcurrency exercises a Delayed+Flaky stack sharing
// one Rand from many goroutines; run under -race this is the regression
// test for the per-wrapper unlocked rand.Rand bug.
func TestFlakySharedRandConcurrency(t *testing.T) {
	rng := NewRand(99)
	delayed := NewDelayedRand(&stubEngine{name: "e"}, LatencyModel{Jitter: time.Microsecond, Base: time.Microsecond}, rng)
	f := NewFlaky(delayed, TransientOnly(0.3), rng)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				_, _ = f.Count("abc")
				_, _ = f.Search("abc", 2)
			}
		}()
	}
	wg.Wait()
	if st := f.Stats(); st.Calls != 16*100 {
		t.Fatalf("Calls = %d, want %d", st.Calls, 16*100)
	}
}

// TestEngineRecordsAreTheMetrics: a Flaky-over-Delayed stack exposes on
// /metrics exactly the records its Stats read — a series per op and fault
// kind once it has an event — and ResetStats empties both views.
func TestEngineRecordsAreTheMetrics(t *testing.T) {
	rng := NewRand(1)
	d := NewDelayedRand(&stubEngine{name: "e"}, ZeroLatency(), rng)
	f := NewFlaky(d, FaultModel{Search: FaultProfile{Hard: 1}}, rng)
	reg := obs.NewRegistry()
	f.Observe(reg)
	f.Observe(reg) // idempotent
	scrape := func() string {
		var b strings.Builder
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if body := scrape(); strings.Contains(body, `{engine="e"`) {
		t.Fatalf("series before any request:\n%s", body)
	}
	for i := 0; i < 3; i++ {
		f.Count("q")
	}
	f.Search("q", 1)
	body := scrape()
	for _, want := range []string{
		`wsq_engine_requests_total{engine="e",op="count"} 3` + "\n",
		`wsq_engine_request_seconds_count{engine="e",op="count"} 3` + "\n",
		`wsq_engine_inflight{engine="e"} 0` + "\n",
		`wsq_engine_faults_total{engine="e",kind="hard"} 1` + "\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
	if strings.Contains(body, `op="search"`) || strings.Contains(body, `op="fetch"`) {
		t.Errorf("a series for an op no request reached:\n%s", body)
	}
	if requests, _ := d.Stats(); requests != 3 || f.Stats().Hard != 1 {
		t.Errorf("Stats: %d requests, %+v", requests, f.Stats())
	}
	d.ResetStats()
	f.ResetStats()
	if body := scrape(); strings.Contains(body, `{engine="e"`) {
		t.Errorf("series after ResetStats:\n%s", body)
	}
}
