package main

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/types"
	"repro/internal/websim"
)

func TestReplayRecordsThenReplays(t *testing.T) {
	sim := websim.NewAltaVista(websim.Default())
	e := newReplayEngine(sim, nil)
	const q = "Florida near scuba diving"
	wantCount, err := e.Count(q)
	if err != nil {
		t.Fatal(err)
	}
	wantHits, err := e.Search(q, 2)
	if err != nil {
		t.Fatal(err)
	}
	if wantCount == 0 || len(wantHits) == 0 {
		t.Fatalf("recording returned nothing to replay: count %d, hits %v", wantCount, wantHits)
	}
	if e.calls.Load() != 0 {
		t.Errorf("recording counted %d calls; only replayed calls reach the ledger", e.calls.Load())
	}

	e.seal()
	gotCount, err := e.Count(q)
	if err != nil || gotCount != wantCount {
		t.Errorf("replayed count = %d, %v; recorded %d", gotCount, err, wantCount)
	}
	gotHits, err := e.Search(q, 2)
	if err != nil || !reflect.DeepEqual(gotHits, wantHits) {
		t.Errorf("replayed hits = %v, %v; recorded %v", gotHits, err, wantHits)
	}
	if live, _ := sim.Search(q, 2); !reflect.DeepEqual(gotHits, live) {
		t.Errorf("replayed hits %v differ from websim's %v", gotHits, live)
	}
	if e.calls.Load() != 2 {
		t.Errorf("calls = %d, want 2", e.calls.Load())
	}

	for name, call := range map[string]func() error{
		"count":        func() error { _, err := e.Count("never recorded"); return err },
		"search":       func() error { _, err := e.Search(q, 3); return err }, // recorded only for k=2
		"fetch":        func() error { _, err := e.Fetch("http://example.com/"); return err },
		"search query": func() error { _, err := e.Search("never recorded", 2); return err },
	} {
		if err := call(); !errors.Is(err, errReplayMiss) {
			t.Errorf("%s of an unrecorded request: err = %v, want a replay miss", name, err)
		}
	}
}

func TestReplaySleepsAndTracksPeak(t *testing.T) {
	sl := newSleeper()
	defer func() {
		if err := sl.close(); err != nil {
			t.Error(err)
		}
	}()
	e := newReplayEngine(websim.NewGoogle(websim.Default()), sl)
	if _, err := e.Count("Texas"); err != nil {
		t.Fatal(err)
	}
	e.seal()
	e.setLatency(20 * time.Millisecond)
	start := time.Now()
	done := make(chan error, 3)
	for i := 0; i < 3; i++ {
		go func() { _, err := e.Count("Texas"); done <- err }()
	}
	for i := 0; i < 3; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if el := time.Since(start); el < 20*time.Millisecond {
		t.Errorf("three overlapped 20 ms calls took %v", el)
	}
	if p := e.peak.v.Load(); p != 3 {
		t.Errorf("peak in flight = %d, want 3", p)
	}
}

func TestDigestIgnoresOrderNotContent(t *testing.T) {
	rows := []types.Tuple{
		{types.Str("Florida"), types.Int(39)},
		{types.Str("Hawaii"), types.Int(31)},
		{types.Str("Hawaii"), types.Int(31)},
		{types.Null(), types.Float(2.5)},
	}
	want := digestTuples(rows)
	shuffled := []types.Tuple{rows[2], rows[3], rows[0], rows[1]}
	if got := digestTuples(shuffled); got != want {
		t.Errorf("reordered rows digest %v, want %v", got, want)
	}
	altered := append([]types.Tuple(nil), rows...)
	altered[1] = types.Tuple{types.Str("Hawaii"), types.Int(32)}
	if digestTuples(altered) == want {
		t.Error("one altered cell left the digest unchanged")
	}
	if digestTuples(rows[:3]) == want || digestTuples([]types.Tuple{rows[0], rows[3]}) == want {
		t.Error("dropping rows (a duplicated pair included) left the digest unchanged")
	}
	moved := []types.Tuple{{types.Str("a"), types.Str("bc")}}
	if digestTuples(moved) == digestTuples([]types.Tuple{{types.Str("ab"), types.Str("c")}}) {
		t.Error("cell boundaries are not part of the digest")
	}

	asJSON := [][]interface{}{{"Florida", 39.0}, {"Hawaii", 31.0}, {"Hawaii", 31.0}, {nil, 2.5}}
	if got := digestJSON(asJSON); got != want {
		t.Errorf("JSON rows digest %v, in-process rows %v", got, want)
	}
}

func TestStatsArithmetic(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{{0.5, 5}, {0.95, 10}, {0.9, 9}, {0.1, 1}, {1, 10}} {
		if got := percentile(vals, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if vals[0] != 5 {
		t.Error("percentile must not reorder its input")
	}
	if got := median(vals); got != 5.5 {
		t.Errorf("median of ten = %v, want 5.5", got)
	}
	if got := median(vals[:3]); got != 4 {
		t.Errorf("median of {5,1,4} = %v, want 4", got)
	}
	if percentile(nil, 0.5) != 0 || median(nil) != 0 {
		t.Error("empty input must give 0")
	}

	// The quiet quarter: of eight slices the two fastest are kept, and a
	// slice's queries count where they completed.
	var r loadResult
	for i := 1; i <= 8; i++ {
		r.slices = append(r.slices, slice{
			seconds: 1, queries: int64(10 * i), cpu: time.Duration(10*i) * time.Millisecond,
			ms: []float64{float64(20 - i), float64(30 - i)},
		})
	}
	if got := r.quiet(); len(got) != 2 || got[0].queries != 80 || got[1].queries != 70 {
		t.Errorf("quiet() = %v, want the 80- and 70-query slices", got)
	}
	if got := r.queriesPerS(); got != 75 {
		t.Errorf("queriesPerS = %v, want 75", got)
	}
	if got := r.queryMS(0.5); got != 12.5 {
		t.Errorf("queryMS(0.5) = %v, want 12.5: slice medians 12 and 13", got)
	}
	if got := r.queryMS(0.95); got != 22.5 {
		t.Errorf("queryMS(0.95) = %v, want 22.5: slice p95s 22 and 23", got)
	}
	if got := r.cpuMSPerQuery(); got != 1 {
		t.Errorf("cpuMSPerQuery = %v, want 1", got)
	}
	if got := (loadResult{slices: r.slices[:3]}).quiet(); len(got) != 1 || got[0].queries != 30 {
		t.Errorf("quiet() of three slices = %v, want the fastest one", got)
	}

	const lat = 2 * time.Millisecond
	for _, c := range []struct {
		calls map[string]int
		want  float64
	}{
		{map[string]int{"altavista": 100}, 8},              // t2_wave: 4 waves of 32
		{map[string]int{"altavista": 150}, 10},             // fig7_cross: 5 waves
		{map[string]int{"altavista": 50}, 4},               // Template 1: 2 waves
		{map[string]int{"altavista": 32}, 2},               // exactly one wave
		{map[string]int{"altavista": 40, "google": 40}, 4}, // per-destination limit binds
		{map[string]int{"altavista": 32, "google": 32}, 2}, // both fit at once: 64 total
		{map[string]int{"a": 30, "b": 30, "c": 30}, 4},     // total limit binds: ceil(90/64)
		{map[string]int{}, 0},
	} {
		if got := floorMS(c.calls, 32, 64, lat); got != c.want {
			t.Errorf("floorMS(%v) = %v, want %v", c.calls, got, c.want)
		}
	}
}

func TestCallSpanArithmetic(t *testing.T) {
	at := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	cs := []callSpan{{"d", at(1), at(3)}, {"d", at(2), at(4)}, {"d", at(6), at(7)}}
	if got := covered(cs, at(0), at(10)); got != at(4) {
		t.Errorf("covered = %v, want 4ms (1-4 and 6-7)", got)
	}
	if got := covered(cs, at(2), at(6)); got != at(2) {
		t.Errorf("covered clipped to [2,6] = %v, want 2ms", got)
	}
	// Limit 2: the third call starts 0.5 ms after the first slot frees, the
	// fourth the instant the second does.
	queue := []callSpan{
		{"d", at(0), at(2)}, {"d", at(0), at(3)},
		{"d", at(2) + 500*time.Microsecond, at(5)}, {"d", at(3), at(6)},
		{"other", at(0), at(1)},
	}
	gaps := refillGaps(queue, 2)
	sort.Slice(gaps, func(i, j int) bool { return gaps[i] < gaps[j] })
	if want := []time.Duration{0, 500 * time.Microsecond}; !reflect.DeepEqual(gaps, want) {
		t.Errorf("refillGaps = %v, want %v", gaps, want)
	}
}

// testOptions keeps every phase as short as it can be while still
// running each query at least once.
func testOptions(t *testing.T) options {
	return options{seed: 1, timed: 200 * time.Millisecond, slices: 1, setups: 1, outDir: t.TempDir()}
}

func TestAlteredCellCountsAsFailure(t *testing.T) {
	ctx := context.Background()
	sp, _ := specByName("hot_cache")
	fx, err := setUp(ctx, sp, 1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := fx.close(); err != nil {
			t.Error(err)
		}
	}()
	if res := drive(ctx, fx, 1, 50*time.Millisecond, 1); res.failed != 0 || res.attempted == 0 {
		t.Fatalf("clean run: %d of %d failed", res.failed, res.attempted)
	}
	d := fx.want[fx.queries[0]]
	d.sum++
	fx.want[fx.queries[0]] = d
	if res := drive(ctx, fx, 1, 50*time.Millisecond, 1); res.failed == 0 {
		t.Errorf("a wrong reference digest went unnoticed over %d queries", res.attempted)
	}
}

// TestSmokeEveryWorkload runs each workload briefly, untraced and traced,
// and holds the output to the declaration in BENCHMARK.json: the same
// metric names, each finite, each with the declared unit.
func TestSmokeEveryWorkload(t *testing.T) {
	mf, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var declaredNames []string
	for _, w := range mf.Workloads {
		declaredNames = append(declaredNames, w.Name)
	}
	if !reflect.DeepEqual(declaredNames, specNames()) {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", declaredNames, specNames())
	}

	check := func(t *testing.T, rep report, want []declared) {
		t.Helper()
		if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
			t.Errorf("correct=%v, %d of %d failed", rep.Correct, rep.Failed, rep.Attempted)
		}
		if len(rep.Metrics) != len(want) {
			t.Errorf("%d metrics emitted, %d declared", len(rep.Metrics), len(want))
		}
		for _, d := range want {
			m, ok := rep.Metrics[d.Name]
			switch {
			case !ok:
				t.Errorf("declared metric %s not emitted", d.Name)
			case m.Unit != d.Unit:
				t.Errorf("%s unit %q, declared %q", d.Name, m.Unit, d.Unit)
			case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
				t.Errorf("%s = %v", d.Name, m.Value)
			}
		}
	}
	ctx := context.Background()
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			opt := testOptions(t)
			rep, err := untracedRun(ctx, opt, sp)
			if err != nil {
				t.Fatal(err)
			}
			check(t, rep, mf.EndToEnd)
			for _, d := range mf.EndToEnd {
				if rep.Metrics[d.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v; a bound is a share of it, so it may never be 0", d.Name, rep.Metrics[d.Name].Value)
				}
			}

			rep, err = tracedRun(ctx, opt, sp)
			if err != nil {
				t.Fatal(err)
			}
			check(t, rep, mf.PerLayer)
			if got := rep.Metrics["engine_calls_per_query"].Value; got != float64(sp.callsPerQuery) {
				t.Errorf("engine_calls_per_query = %v, want %d", got, sp.callsPerQuery)
			}
			if sp.latency > 0 && sp.callsPerQuery > 0 {
				if got := rep.Metrics["async.peak_inflight"].Value; got != 32 {
					t.Errorf("async.peak_inflight = %v, want the per-destination limit 32", got)
				}
			}
		})
	}
}
