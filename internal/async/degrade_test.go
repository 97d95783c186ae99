package async

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/exec"
	"repro/internal/types"
)

// failingSource fails calls for selected argument values with the given
// error; others return one row carrying the argument's length.
func failingSource(failFor map[string]error) *scriptedSource {
	return &scriptedSource{name: "WC", dest: "d", numEcho: 1,
		rows: func(arg string) ([]types.Tuple, error) {
			if err, ok := failFor[arg]; ok {
				return nil, err
			}
			return []types.Tuple{{types.Int(int64(len(arg)))}}, nil
		}}
}

func runWithDegrade(t *testing.T, pol exec.DegradePolicy, failFor map[string]error, terms []string) ([]types.Tuple, exec.Stats, error) {
	t.Helper()
	pump := newPump(t, 4, 4, nil)
	rs, _ := buildCountPlan(terms, failingSource(failFor), pump)
	ctx := exec.NewContext()
	ctx.Degrade = pol
	rows, err := exec.Run(ctx, rs)
	return rows, ctx.Stats, err
}

func TestDegradeFailErrorsQuery(t *testing.T) {
	_, _, err := runWithDegrade(t, exec.DegradeFail,
		map[string]error{"bb": errors.New("engine down")}, []string{"a", "bb", "ccc"})
	if err == nil || !errors.Is(err, errors.Unwrap(err)) && err == nil {
		t.Fatalf("want error, got %v", err)
	}
	if err == nil {
		t.Fatal("fail policy should surface the call error")
	}
}

func TestDegradeDropCancelsFailedTuples(t *testing.T) {
	rows, stats, err := runWithDegrade(t, exec.DegradeDrop,
		map[string]error{"bb": errors.New("engine down")}, []string{"a", "bb", "ccc"})
	if err != nil {
		t.Fatalf("drop policy should absorb the failure: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("want 2 surviving rows, got %v", rows)
	}
	for _, r := range rows {
		if r[0].AsString() == "bb" {
			t.Fatalf("failed tuple leaked through drop policy: %v", r)
		}
	}
	if stats.DegradedCalls != 1 {
		t.Fatalf("DegradedCalls = %d, want 1", stats.DegradedCalls)
	}
}

func TestDegradePartialEmitsNullPatchedTuples(t *testing.T) {
	rows, stats, err := runWithDegrade(t, exec.DegradePartial,
		map[string]error{"bb": errors.New("engine down")}, []string{"a", "bb", "ccc"})
	if err != nil {
		t.Fatalf("partial policy should absorb the failure: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("want 3 rows, got %v", rows)
	}
	found := false
	for _, r := range rows {
		if r[0].AsString() != "bb" {
			if r[2].IsNull() {
				t.Fatalf("healthy tuple NULL-patched: %v", r)
			}
			continue
		}
		found = true
		if !r[2].IsNull() {
			t.Fatalf("failed call's Count should be NULL, got %v", r[2])
		}
	}
	if !found {
		t.Fatal("partial policy dropped the degraded tuple")
	}
	if stats.DegradedCalls != 1 {
		t.Fatalf("DegradedCalls = %d, want 1", stats.DegradedCalls)
	}
}

// TestDegradeDropWithRetriesOnlyCountsTerminalFailures: a call that
// succeeds on retry is not degraded.
func TestDegradeDropWithRetriesOnlyCountsTerminalFailures(t *testing.T) {
	pump := newPump(t, 4, 4, nil)
	pump.SetRetryPolicy(RetryPolicy{MaxAttempts: 3, BaseBackoff: 0})
	var mu sync.Mutex // rows runs on the pump's execution goroutines
	attempts := map[string]int{}
	src := &scriptedSource{name: "WC", dest: "d", numEcho: 1,
		rows: func(arg string) ([]types.Tuple, error) {
			mu.Lock()
			attempts[arg]++
			n := attempts[arg]
			mu.Unlock()
			if arg == "bb" && n < 3 {
				return nil, transientErr{"blip"}
			}
			return []types.Tuple{{types.Int(int64(len(arg)))}}, nil
		}}
	rs, _ := buildCountPlan([]string{"a", "bb"}, src, pump)
	ctx := exec.NewContext()
	ctx.Degrade = exec.DegradeDrop
	rows, err := exec.Run(ctx, rs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("retried call should survive under drop policy, got %v", rows)
	}
	if ctx.Stats.DegradedCalls != 0 {
		t.Fatalf("DegradedCalls = %d, want 0 (retry succeeded)", ctx.Stats.DegradedCalls)
	}
}
