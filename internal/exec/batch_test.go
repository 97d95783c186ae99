package exec

import (
	"fmt"
	"testing"

	"repro/internal/expr"
	"repro/internal/schema"
	"repro/internal/types"
)

// ---------------------------------------------------------------------------
// Batch protocol: window semantics, max discipline.

func seqValues(n int) (*ValuesScan, schema.Column) {
	a := intCol("T", "A")
	rows := make([]types.Tuple, n)
	for i := range rows {
		rows[i] = types.Tuple{types.Int(int64(i))}
	}
	return NewValuesScan(schema.New(a), rows), a
}

// TestValuesScanBatchWindows: a batch-native leaf hands out windows of at
// most max rows, in order, with ok=false exactly at exhaustion.
func TestValuesScanBatchWindows(t *testing.T) {
	v, _ := seqValues(5)
	ctx := NewContext()
	if err := v.Open(ctx); err != nil {
		t.Fatal(err)
	}
	var sizes []int
	var all []types.Tuple
	for {
		b, ok, err := v.NextBatch(ctx, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if len(b) == 0 {
			t.Fatal("ok=true with empty batch violates the protocol")
		}
		sizes = append(sizes, len(b))
		all = append(all, b...)
	}
	if len(sizes) != 3 || sizes[0] != 2 || sizes[1] != 2 || sizes[2] != 1 {
		t.Fatalf("batch sizes: %v, want [2 2 1]", sizes)
	}
	for i, tup := range all {
		if got, _ := tup[0].AsInt(); got != int64(i) {
			t.Fatalf("row %d: %v", i, tup)
		}
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLimitNeverOverdraws: Limit must cap the batch max it forwards, so a
// child never produces more rows than the limit — under asynchronous
// iteration an overdraw would register extra external calls.
func TestLimitNeverOverdraws(t *testing.T) {
	v, _ := seqValues(10)
	f := newFault(v)
	l := NewLimit(f, 3)
	rows := runAll(t, l)
	if len(rows) != 3 {
		t.Fatalf("rows: %d, want 3", len(rows))
	}
	if f.rows > 3 {
		t.Fatalf("Limit(3) pulled %d child rows — overdraw", f.rows)
	}
}

// TestFilterWindowIsItsOwn: Filter collects survivors into a window of its
// own, which the Ownership rule lets it reuse at the next NextBatch, never
// into the child's storage: the child's rows are untouched, and a tuple a
// consumer copied out of batch i is unchanged once batch i+1 exists.
func TestFilterWindowIsItsOwn(t *testing.T) {
	v, a := seqValues(8)
	stored := rowStrings(v.Rows)
	fl := NewFilter(v, keepPred(a))
	ctx := NewContext()
	ctx.BatchSize = 4
	if err := fl.Open(ctx); err != nil {
		t.Fatal(err)
	}
	b1, ok, err := fl.NextBatch(ctx, 4)
	if err != nil || !ok {
		t.Fatal(err)
	}
	kept := append([]types.Tuple(nil), b1...)
	snapshot := rowStrings(kept)
	if _, _, err := fl.NextBatch(ctx, 4); err != nil {
		t.Fatal(err)
	}
	for i := range kept {
		if kept[i].String() != snapshot[i] {
			t.Fatalf("tuple %d of batch 1 changed after batch 2: %v vs %v", i, kept[i], snapshot[i])
		}
	}
	if got := rowStrings(v.Rows); fmt.Sprint(got) != fmt.Sprint(stored) {
		t.Fatalf("the child's rows changed under the filter: %v vs %v", got, stored)
	}
	if err := fl.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRunBatchSizeEquivalence: results are identical across batch sizes —
// batching is an execution granularity, never a semantics change.
func TestRunBatchSizeEquivalence(t *testing.T) {
	mk := func() Operator {
		v, a := seqValues(50)
		return NewSort(NewFilter(v, keepPred(a)),
			[]SortKey{{Expr: expr.NewColRef(a), Desc: true}})
	}
	var base []string
	for i, size := range []int{0, 1, 7, 256} {
		ctx := NewContext()
		ctx.BatchSize = size
		rows, err := Run(ctx, mk())
		if err != nil {
			t.Fatal(err)
		}
		got := rowStrings(rows)
		if i == 0 {
			base = got
			continue
		}
		if len(got) != len(base) {
			t.Fatalf("batch size %d changed row count: %d vs %d", size, len(got), len(base))
		}
		for j := range got {
			if got[j] != base[j] {
				t.Fatalf("batch size %d changed row %d: %s vs %s", size, j, got[j], base[j])
			}
		}
	}
}

// keepPred keeps rows with a > 2.
func keepPred(a schema.Column) expr.Expr {
	return expr.NewCmp(expr.GT, expr.NewColRef(a), expr.NewLiteral(types.Int(2)))
}
