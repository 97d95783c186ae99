package async

import (
	"fmt"
	"testing"

	"repro/internal/exec"
	"repro/internal/types"
)

// ---------------------------------------------------------------------------
// Batched AEVScan registration (BindBatch) and pump queue depth.

// TestPumpDepthWholeBatchBeforeFirstWait is the acceptance test for batched
// registration: with the source gated so no call can complete, opening the
// full-buffering ReqSync must leave the pump holding one pending call per
// outer tuple — the queue depth is the whole batch, not 1 — before the
// ReqSync ever waits on a completion.
func TestPumpDepthWholeBatchBeforeFirstWait(t *testing.T) {
	const n = 32
	release := make(chan struct{})
	src := &scriptedSource{name: "WC", dest: "d", numEcho: 1,
		rows: func(arg string) ([]types.Tuple, error) {
			<-release
			return []types.Tuple{{types.Int(int64(len(arg)))}}, nil
		}}
	terms := make([]string, n)
	for i := range terms {
		terms[i] = fmt.Sprintf("term-%02d", i)
	}
	pump := NewPump(4, 4, nil)
	defer pump.Close()
	rs, _ := buildCountPlan(terms, src, pump)
	ctx := exec.NewContext()
	if err := rs.Open(ctx); err != nil {
		t.Fatal(err)
	}
	// Open drained the dependent join batch-at-a-time: every outer binding's
	// call is registered with the pump even though none has completed.
	if got := pump.Stats().Registered; got != n {
		t.Fatalf("calls registered before first wait: %d, want %d", got, n)
	}
	if running, queued := pump.Active(); running+queued != n {
		t.Fatalf("pump depth before first wait: running=%d queued=%d, want total %d",
			running, queued, n)
	}
	// Release the gate; every tuple must still settle correctly.
	close(release)
	var rows []types.Tuple
	for {
		b, ok, err := rs.NextBatch(ctx, 5) // a size that splits the ready queue
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		rows = append(rows, b...)
	}
	if err := rs.Close(); err != nil {
		t.Fatal(err)
	}
	if len(rows) != n {
		t.Fatalf("rows: %d, want %d", len(rows), n)
	}
	for _, tup := range rows {
		if got, _ := tup[2].AsInt(); got != int64(len(tup[0].AsString())) {
			t.Errorf("row %v: count %d, want %d", tup, got, len(tup[0].AsString()))
		}
	}
}

// TestBindBatchRegistersOneRound checks the dependent join's batch binding
// path directly: a single NextBatch over the outer batch registers every
// call in one protocol round and yields one placeholder tuple per binding.
func TestBindBatchRegistersOneRound(t *testing.T) {
	const n = 8
	src := &scriptedSource{name: "WC", dest: "d", numEcho: 1,
		rows: func(arg string) ([]types.Tuple, error) {
			return []types.Tuple{{types.Int(int64(len(arg)))}}, nil
		}}
	terms := make([]string, n)
	for i := range terms {
		terms[i] = fmt.Sprintf("t%d", i)
	}
	pump := NewPump(4, 4, nil)
	defer pump.Close()
	rs, _ := buildCountPlan(terms, src, pump)
	dj := rs.Child
	ctx := exec.NewContext()
	if err := dj.Open(ctx); err != nil {
		t.Fatal(err)
	}
	b, ok, err := dj.NextBatch(ctx, n)
	if err != nil || !ok {
		t.Fatalf("NextBatch: ok=%v err=%v", ok, err)
	}
	if len(b) != n {
		t.Fatalf("batch size: %d, want %d", len(b), n)
	}
	if got := pump.Stats().Registered; got != n {
		t.Fatalf("one batch round registered %d calls, want %d", got, n)
	}
	for i, tup := range b {
		if tup[0].AsString() != terms[i] {
			t.Errorf("tuple %d echoes %v, want %s", i, tup[0], terms[i])
		}
		if tup[1].AsString() != terms[i] {
			t.Errorf("tuple %d inner echo %v, want %s", i, tup[1], terms[i])
		}
		if !tup[2].IsPlaceholder() {
			t.Errorf("tuple %d: want placeholder, got %v", i, tup[2])
		}
	}
	if err := dj.Close(); err != nil {
		t.Fatal(err)
	}
	if ctx.Stats.ExternalCalls != n {
		t.Errorf("per-binding call accounting: %d, want %d", ctx.Stats.ExternalCalls, n)
	}
}

// TestBindBatchDedupsKeysOnlyWithCache pins the Figure 7 contract: with a
// result cache the batch registers one pump call per distinct cache key
// (duplicates share a CallID and the pump memoizes anyway), while without
// a cache every binding registers its own call — batching must not silently
// repair the paper's redundant-request hazard.
func TestBindBatchDedupsKeysOnlyWithCache(t *testing.T) {
	terms := []string{"alpha", "beta", "alpha", "beta", "alpha"}
	mk := func() *scriptedSource {
		return &scriptedSource{name: "WC", dest: "d", numEcho: 1,
			rows: func(arg string) ([]types.Tuple, error) {
				return []types.Tuple{{types.Int(int64(len(arg)))}}, nil
			}}
	}
	run := func(t *testing.T, src *scriptedSource, pump *Pump) []types.Tuple {
		t.Helper()
		defer pump.Close()
		rs, _ := buildCountPlan(terms, src, pump)
		return runOp(t, rs)
	}

	t.Run("cache", func(t *testing.T) {
		src := mk()
		pump := NewPump(4, 4, &countingCache{m: make(map[string][]types.Tuple)})
		rows := run(t, src, pump)
		if len(rows) != len(terms) {
			t.Fatalf("rows: %d, want %d", len(rows), len(terms))
		}
		if got := pump.Stats().Registered; got != 2 {
			t.Errorf("registered: %d, want 2 (one per distinct key)", got)
		}
		if src.calls != 2 {
			t.Errorf("source calls: %d, want 2", src.calls)
		}
		for _, tup := range rows {
			if got, _ := tup[2].AsInt(); got != int64(len(tup[0].AsString())) {
				t.Errorf("row %v mispatched", tup)
			}
		}
	})

	t.Run("no-cache", func(t *testing.T) {
		src := mk()
		pump := NewPump(4, 4, nil)
		rows := run(t, src, pump)
		if len(rows) != len(terms) {
			t.Fatalf("rows: %d, want %d", len(rows), len(terms))
		}
		if got := pump.Stats().Registered; got != int64(len(terms)) {
			t.Errorf("registered: %d, want %d (Figure 7 duplicates preserved)", got, len(terms))
		}
	})
}

// TestBindBatchCapabilityProbe: an empty frames slice reports support
// without registering anything.
func TestBindBatchCapabilityProbe(t *testing.T) {
	pump := NewPump(4, 4, nil)
	defer pump.Close()
	src := &scriptedSource{name: "WC", dest: "d", numEcho: 1, rows: nil}
	rs, _ := buildCountPlan([]string{"x"}, src, pump)
	aev := rs.Child.(*exec.DependentJoin).Right.(*AEVScan)
	rows, ok, err := aev.BindBatch(exec.NewContext(), nil)
	if err != nil || !ok || rows != nil {
		t.Fatalf("probe: rows=%v ok=%v err=%v", rows, ok, err)
	}
	if got := pump.Stats().Registered; got != 0 {
		t.Errorf("probe registered %d calls, want 0", got)
	}
}
