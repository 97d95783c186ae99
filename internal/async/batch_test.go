package async

import (
	"fmt"
	"testing"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/schema"
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

// TestBindBatchCapabilityProbe: an empty outer batch binds nothing and
// registers nothing.
func TestBindBatchCapabilityProbe(t *testing.T) {
	pump := NewPump(4, 4, nil)
	defer pump.Close()
	src := &scriptedSource{name: "WC", dest: "d", numEcho: 1, rows: nil}
	rs, _ := buildCountPlan([]string{"x"}, src, pump)
	aev := rs.Child.(*reusedWindows).Operator.(*exec.DependentJoin).Right.(*AEVScan)
	rows, err := aev.BindBatch(exec.NewContext(), nil, nil)
	if err != nil || len(rows) != 0 {
		t.Fatalf("empty batch: rows=%v err=%v", rows, err)
	}
	if got := pump.Stats().Registered; got != 0 {
		t.Errorf("empty batch registered %d calls, want 0", got)
	}
}

// TestDependentJoinRowsAreOwnedByTheirHolder is the binding-by-reference
// twin of exec's TestSlabTuplesAreOwnedByTheirHolder. The dependent join
// binds each outer tuple by reference — a TableScan's slab row, decoded out
// of a page view — and cuts a round's joined rows from one slab; AEVScan
// copies the echoed argument out of the frame. Whoever holds a row out of
// ReqSync(DependentJoin(TableScan, AEVScan)) must see what a tuple with
// storage of its own would show: unchanged once the scan has moved on and
// its pages were overwritten, after ReqSync patched its siblings in place,
// and after a neighbour was appended to or overwritten.
func TestDependentJoinRowsAreOwnedByTheirHolder(t *testing.T) {
	const n = 300 // several pages, several outer batches, several rounds
	for _, size := range []int{1, 3, 256} {
		t.Run(fmt.Sprintf("batch-%d", size), func(t *testing.T) {
			cat, err := catalog.Open(t.TempDir(), 4)
			if err != nil {
				t.Fatal(err)
			}
			defer cat.Close()
			tab, err := cat.Create("T", []catalog.ColumnDef{{Name: "Id", Type: schema.TInt}, {Name: "Name", Type: schema.TString}})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if _, err := tab.Insert(types.Tuple{types.Int(int64(i)), types.Str(fmt.Sprintf("name-%d", i))}); err != nil {
					t.Fatal(err)
				}
			}
			src := &scriptedSource{name: "WC", dest: "d", numEcho: 1,
				rows: func(arg string) ([]types.Tuple, error) {
					return []types.Tuple{{types.Int(int64(len(arg)))}}, nil
				}}
			pump := NewPump(8, 8, nil)
			defer pump.Close()
			ts := tab.InstantiateSchema("")
			aev := NewAEVScan(src, []expr.Expr{expr.NewColRef(ts.Cols[1])}, schema.New(strCol("V", "Term"), intCol("V", "Count")), pump)
			rs := syncOver(exec.NewDependentJoin(exec.NewTableScan(tab, ts), aev, ""), pump, aev.FilledAttrs())
			ctx := exec.NewContext()
			ctx.BatchSize = size
			rows, err := exec.Run(ctx, rs) // Run closes the plan: the scanner is gone
			if err != nil || len(rows) != n {
				t.Fatalf("%d rows, err %v", len(rows), err)
			}
			// Push every page the scan read out of the 4-frame pool and
			// overwrite the frames.
			for i := 0; i < 300; i++ {
				if _, err := tab.Heap.Insert([]byte(fmt.Sprintf("%0100d", i))); err != nil {
					t.Fatal(err)
				}
			}
			byID := make([]types.Tuple, n) // completion order is not scan order
			for _, row := range rows {
				if cap(row) != len(row) {
					t.Fatalf("row %v: cap %d > len %d, an append would write its neighbour", row, cap(row), len(row))
				}
				byID[row[0].I] = row
			}
			for i := 0; i < n; i += 2 {
				_ = append(byID[i], types.Str("appended"))
				for c := range byID[i] {
					byID[i][c] = types.Str("overwritten")
				}
			}
			for i := 1; i < n; i += 2 {
				name := fmt.Sprintf("name-%d", i)
				if got, want := byID[i].String(), fmt.Sprintf("<%d, %s, %s, %d>", i, name, name, len(name)); got != want {
					t.Fatalf("row %d: %s, want %s", i, got, want)
				}
			}
		})
	}
}
