package exec

import (
	"fmt"
	"testing"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/schema"
	"repro/internal/types"
)

// storedTable creates a stored (Id INT, Name VARCHAR) table of n rows.
func storedTable(t *testing.T, n int) *catalog.Table {
	t.Helper()
	cat, err := catalog.Open(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cat.Close() })
	tab, err := cat.Create("T", []catalog.ColumnDef{{Name: "Id", Type: schema.TInt}, {Name: "Name", Type: schema.TString}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := tab.Insert(types.Tuple{types.Int(int64(i)), types.Str(fmt.Sprintf("name-%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

// TestSlabTuplesAreOwnedByTheirHolder: TableScan decodes a batch's tuples
// into one shared slab out of a page view that dies at the scanner's next
// step, and HashJoin cuts joined rows from a slab of its own. Whoever ends
// up holding such a tuple must see what a tuple with storage of its own
// would show: unchanged once the scan has moved on and closed and the
// pages were evicted and overwritten, unchanged when a neighbour is
// appended to, unchanged when a neighbour is patched in place (ReqSync
// does that to placeholder rows).
func TestSlabTuplesAreOwnedByTheirHolder(t *testing.T) {
	const n = 700 // several pages, several batches, several slabs
	id := func(s *schema.Schema) expr.Expr { return expr.NewColRef(s.Cols[0]) }
	plans := map[string]struct {
		mk   func(tab *catalog.Table) Operator
		want func(i int) string
	}{
		"TableScan": {
			func(tab *catalog.Table) Operator { return NewTableScan(tab, tab.InstantiateSchema("")) },
			func(i int) string { return fmt.Sprintf("<%d, name-%d>", i, i) },
		},
		"HashJoin": {
			func(tab *catalog.Table) Operator {
				ls, rs := tab.InstantiateSchema("L"), tab.InstantiateSchema("R")
				return NewHashJoin(NewTableScan(tab, ls), NewTableScan(tab, rs), []expr.Expr{id(ls)}, []expr.Expr{id(rs)}, nil)
			},
			func(i int) string { return fmt.Sprintf("<%d, name-%d, %d, name-%d>", i, i, i, i) },
		},
	}
	for name, p := range plans {
		for _, size := range []int{1, 3, 256} {
			t.Run(fmt.Sprintf("%s/batch-%d", name, size), func(t *testing.T) {
				tab := storedTable(t, n)
				ctx := NewContext()
				ctx.BatchSize = size
				rows, err := Run(ctx, p.mk(tab)) // Run closes the plan: every scanner is gone
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
				for i, row := range rows {
					if cap(row) != len(row) {
						t.Fatalf("row %d: cap %d > len %d, an append would write its neighbour", i, cap(row), len(row))
					}
					if i%2 == 0 {
						_ = append(row, types.Str("appended"))
						for c := range row {
							row[c] = types.Str("patched")
						}
					}
				}
				for i := 1; i < n; i += 2 {
					if got := rows[i].String(); got != p.want(i) {
						t.Fatalf("row %d: %s, want %s", i, got, p.want(i))
					}
				}
			})
		}
	}
}

// TestScanStringsSurviveFrameReuse: a scan cuts the strings of a page's
// records out of one copy of the page's record area, made while the page
// is pinned. Through a one-frame pool every page of the table is read into
// the same frame, and an insert after the scan rewrites the last page in
// it: the strings of every tuple kept from the scan must read as stored,
// and a second scan must read the new rows as well as the old.
func TestScanStringsSurviveFrameReuse(t *testing.T) {
	cat, err := catalog.Open(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cat.Close() })
	tab, err := cat.Create("A", []catalog.ColumnDef{{Name: "Id", Type: schema.TInt}, {Name: "Name", Type: schema.TString}})
	if err != nil {
		t.Fatal(err)
	}
	name := func(i int) string { return fmt.Sprintf("name-%04d-%s", i, "abcdefghijklmnopqrstuvwxyz"[:i%27]) }
	insert := func(from, to int) {
		for i := from; i < to; i++ {
			if _, err := tab.Insert(types.Tuple{types.Int(int64(i)), types.Str(name(i))}); err != nil {
				t.Fatal(err)
			}
		}
	}
	const n = 400
	insert(0, n)
	if pages := tab.Heap.NumPages(); pages < 4 {
		t.Fatalf("want several pages through the one frame, got %d", pages)
	}
	scan := func() []types.Tuple {
		sc := NewTableScan(tab, tab.InstantiateSchema(""))
		ctx := NewContext()
		if err := sc.Open(ctx); err != nil {
			t.Fatal(err)
		}
		var kept []types.Tuple
		for {
			b, ok, err := sc.NextBatch(ctx, 7)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			kept = append(kept, b...)
		}
		if err := sc.Close(); err != nil {
			t.Fatal(err)
		}
		return kept
	}
	check := func(when string, kept []types.Tuple, rows int) {
		t.Helper()
		if len(kept) != rows {
			t.Fatalf("%s: %d rows, want %d", when, len(kept), rows)
		}
		for i, tu := range kept {
			if tu[0].I != int64(i) || tu[1].S != name(i) {
				t.Fatalf("%s: row %d reads %v, want <%d, %s>", when, i, tu, i, name(i))
			}
		}
	}
	first := scan()
	check("first scan", first, n)
	insert(n, n+40)
	second := scan()
	check("first scan, after the insert and a second scan", first, n)
	check("second scan", second, n+40)
}

// TestRejectedRecordsLeaveNoTrace: a scan decodes the cells its predicate
// reads first and a record's other cells only if it passes. So a page on
// which no record passes never has its record area made into a string —
// a re-opened scan that rejects every record allocates no object per
// page, where one that keeps them makes a string for each — and no cell
// of a rejected record reaches a batch, whatever the batch size and
// whether or not the scan refills one slab.
func TestRejectedRecordsLeaveNoTrace(t *testing.T) {
	cat, err := catalog.Open(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cat.Close() })
	tab, err := cat.Create("B", []catalog.ColumnDef{
		{Name: "Id", Type: schema.TInt}, {Name: "Name", Type: schema.TString}, {Name: "Amount", Type: schema.TInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 1500
	name := func(i int) string { return fmt.Sprintf("name-%04d", i) }
	amount := func(i int) int64 { // rows below 750 are all rejected, then one in three passes
		if i >= 750 && i%3 == 0 {
			return 150
		}
		return 50
	}
	for i := 0; i < n; i++ {
		if _, err := tab.Insert(types.Tuple{types.Int(int64(i)), types.Str(name(i)), types.Int(amount(i))}); err != nil {
			t.Fatal(err)
		}
	}
	pages := tab.Heap.NumPages()
	if pages < 6 {
		t.Fatalf("want several pages, got %d", pages)
	}
	scanWhere := func(min int64) *TableScan {
		sc := NewTableScan(tab, tab.InstantiateSchema(""))
		sc.Pred = expr.NewCmp(expr.GT, expr.NewColRef(sc.Out.Cols[2]), expr.NewLiteral(types.Int(min)))
		return sc
	}
	drain := func(sc *TableScan, ctx *Context, max int, each func(types.Tuple)) {
		t.Helper()
		if err := sc.Open(ctx); err != nil {
			t.Fatal(err)
		}
		for {
			b, ok, err := sc.NextBatch(ctx, max)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			for _, tu := range b {
				each(tu)
			}
		}
		if err := sc.Close(); err != nil {
			t.Fatal(err)
		}
	}

	ctx := NewContext()
	none, all := scanWhere(1000), scanWhere(0)
	rejecting := testing.AllocsPerRun(10, func() { drain(none, ctx, 256, func(types.Tuple) { t.Fatal("a rejected record reached a batch") }) })
	keeping := testing.AllocsPerRun(10, func() { drain(all, ctx, 256, func(types.Tuple) {}) })
	if rejecting >= float64(pages) || keeping < float64(pages) {
		t.Errorf("%d pages: a scan rejecting every record made %.0f objects, one keeping them %.0f; want fewer than one a page, and at least one a page",
			pages, rejecting, keeping)
	}

	for _, granted := range []bool{false, true} {
		for _, max := range []int{1, 3, 256} {
			sc, seen := scanWhere(100), 0
			if granted {
				grantRecycling(sc)
			}
			drain(sc, NewContext(), max, func(tu types.Tuple) {
				i := int(tu[0].I)
				if amount(i) <= 100 || tu[1].S != name(i) || tu[2].I != amount(i) {
					t.Fatalf("granted %v, max %d: row %v, want <%d, %s, %d> and only rows with Amount > 100", granted, max, tu, i, name(i), amount(i))
				}
				seen++
			})
			if seen != 250 {
				t.Errorf("granted %v, max %d: %d rows, want 250", granted, max, seen)
			}
		}
	}
}
