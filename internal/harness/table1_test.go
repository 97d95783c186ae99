//go:build goexperiment.synctest

package harness

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/async"
	"repro/internal/search"
)

// checkGolden compares got with testdata/name, or rewrites the file under
// -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s differs (rerun with -update after a deliberate change)\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestTable1PaperMode is the paper's Table 1 at its own latency (about
// 0.75 s a call): the three templates, two runs of eight queries each,
// asynchronous then synchronous, through RunTemplate. On the bubble's
// clock the table is exact, so it is compared byte for byte with
// testdata/table1_paper.txt. Each query's time is also checked against
// its cost model with zero tolerance: a synchronous query takes the sum of
// its engine calls' durations, and an asynchronous one the makespan of a
// FIFO schedule of those durations under the pump's limits (32 calls per
// engine, 64 in all).
func TestTable1PaperMode(t *testing.T) {
	var results []RunResult
	inBubble(t, Options{Latency: search.PaperLatency()}, func(env *Env, rec *recorder) error {
		for tmpl := 1; tmpl <= 3; tmpl++ {
			for run := 1; run <= 2; run++ {
				start := time.Now()
				r, err := RunTemplate(context.Background(), env, tmpl, run, 8)
				if err != nil {
					return err
				}
				// The async queries ran first, then the sync ones.
				perQuery := splitByQuery(rec.take(), start, append(append([]time.Duration(nil), r.Async...), r.Sync...))
				asyncCalls, syncCalls := perQuery[:len(r.Async)], perQuery[len(r.Async):]
				for i := range r.Sync {
					if len(syncCalls[i]) == 0 || len(asyncCalls[i]) == 0 {
						t.Errorf("template %d run %d query %d: %d async and %d sync calls",
							tmpl, run, i, len(asyncCalls[i]), len(syncCalls[i]))
					}
					if want := sumDurations(syncCalls[i]); r.Sync[i] != want {
						t.Errorf("template %d run %d query %d: sync took %v, its %d calls %v",
							tmpl, run, i, r.Sync[i], len(syncCalls[i]), want)
					}
					if want := fifoMakespan(asyncCalls[i], async.DefaultMaxPerDest, async.DefaultMaxTotal); r.Async[i] != want {
						t.Errorf("template %d run %d query %d: async took %v, the FIFO schedule of its %d calls %v",
							tmpl, run, i, r.Async[i], len(asyncCalls[i]), want)
					}
					if tmpl == 3 {
						checkT3Calls(t, run, i, asyncCalls[i], syncCalls[i])
					}
				}
				results = append(results, r)
			}
		}
		return nil
	})
	checkGolden(t, "table1_paper.txt", FormatTable1(results))

	// The paper's ordering: the gain grows with the template's calls per
	// query (Table 1: 6.0/9.4, 13.5/12.5, 19.6/16.4).
	if len(results) == 6 {
		gain := func(tmpl int) float64 {
			return (results[2*tmpl-2].Improvement + results[2*tmpl-1].Improvement) / 2
		}
		if !(gain(1) < gain(2) && gain(2) < gain(3)) {
			t.Errorf("improvement T1 %.1fx, T2 %.1fx, T3 %.1fx: want T1 < T2 < T3", gain(1), gain(2), gain(3))
		}
	}
}

// checkT3Calls pins the call split behind Template 3's synchronous column.
// The asynchronous plan calls each of its 74 distinct (engine, query)
// keys — 37 signatures on two engines — once. The synchronous dependent
// joins call WebPages_AV once per signature, then WebPages_Google once per
// WebPages_AV row: 79 to 148 calls over 61 to 74 of the same keys, a
// Google key repeated up to three times and a signature without AV rows
// never sent to Google. That is part of why our T3 factor exceeds the
// paper's (EXPERIMENTS.md).
func checkT3Calls(t *testing.T, run, i int, asyncCalls, syncCalls []engineCall) {
	t.Helper()
	keys := func(calls []engineCall) map[engineCall]int {
		n := map[engineCall]int{}
		for _, c := range calls {
			n[engineCall{engine: c.engine, arg: c.arg}]++
		}
		return n
	}
	ak, sk := keys(asyncCalls), keys(syncCalls)
	if len(asyncCalls) != 74 || len(ak) != 74 {
		t.Errorf("template 3 run %d query %d: async made %d calls for %d keys, want 74 for 74", run, i, len(asyncCalls), len(ak))
	}
	if n := len(syncCalls); n < 79 || n > 148 || len(sk) < 61 {
		t.Errorf("template 3 run %d query %d: sync made %d calls for %d keys, want 79-148 for 61-74", run, i, n, len(sk))
	}
	av := 0
	for k, n := range sk {
		switch {
		case ak[k] == 0:
			t.Errorf("template 3 run %d query %d: sync called %s %q, which async never did", run, i, k.engine, k.arg)
		case k.engine != "google" && n != 1:
			t.Errorf("template 3 run %d query %d: sync called %s %q %d times, want once", run, i, k.engine, k.arg, n)
		case k.engine != "google":
			av++
		}
	}
	if av != 37 {
		t.Errorf("template 3 run %d query %d: sync called WebPages_AV for %d signatures, want 37", run, i, av)
	}
}
