package exec

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/types"
)

// TableScan is a full scan over a stored table. The scan's output schema is
// the per-query instantiation of the table's columns (fresh AttrIDs per
// occurrence in the FROM clause).
type TableScan struct {
	leaf
	Table *catalog.Table
	// Out holds the columns the scan emits: those of the table's that Keep
	// marks. The others are never decoded.
	Out  *schema.Schema
	Keep []bool
	// Pred, when non-nil, is the selection over this table's own columns
	// (the paper's Select, run inside the scan): a record that fails it is
	// taken back off the slab and never reaches a batch. It reads columns
	// of Out only.
	Pred expr.Expr

	sc  *storage.Scanner
	win []types.Tuple // the window NextBatch hands out, reused (see Batch)
	// cutStrs is set when Out has a string column. strs is then the
	// record area of the page being read, whose kept string cells are cut
	// out of one string made on the first of them, and page is that page's
	// number, -1 before the first record of an Open.
	cutStrs bool
	strs    types.StrArea
	page    int64
	// plan decodes a record in two halves (see types.DecodePlan): the
	// cells Pred reads, which test marks, then, for a record that passes,
	// the other cells Keep marks. test and attrs are its storage, kept
	// across Opens.
	plan  types.DecodePlan
	test  []bool
	attrs map[schema.AttrID]bool
	// slab is what records are decoded into (see Batch), and slabRows how
	// many tuples its next replacement holds. That doubles from a few up
	// to the batch size, so scanning a 50-row table for a 256-tuple batch
	// does not allocate 256 rows of values.
	slab     rowSlab
	slabRows int
}

// NewTableScan builds a scan over t producing the given instantiated schema.
func NewTableScan(t *catalog.Table, out *schema.Schema) *TableScan {
	return &TableScan{Table: t, Out: out, Keep: keepAll(out)}
}

// Schema implements Operator.
func (s *TableScan) Schema() *schema.Schema { return s.Out }

// Prune narrows the scan to the columns in need (and, if it names none,
// the first).
func (s *TableScan) Prune(need map[schema.AttrID]bool) {
	s.Out = narrow(s.Out, s.Keep, need, spareCol(s.Out.Cols, need))
}

// Open implements Operator; re-opening restarts the scan (dependent joins
// and nested-loop joins re-open their inner input).
func (s *TableScan) Open(ctx *Context) error {
	if s.sc != nil {
		if err := s.sc.Close(); err != nil {
			return err
		}
	}
	s.sc = s.Table.Heap.NewScanner()
	s.slabRows = 8
	s.page = -1
	s.cutStrs = false
	for _, col := range s.Out.Cols {
		s.cutStrs = s.cutStrs || col.Type == schema.TString
	}
	if err := bindAll("Scan", s.Out, s.Pred); err != nil {
		return err
	}
	var test []bool // nil: without Pred every kept cell is decoded at once
	if s.Pred != nil {
		if s.attrs == nil {
			s.attrs = make(map[schema.AttrID]bool)
		}
		clear(s.attrs)
		s.Pred.CollectAttrs(s.attrs)
		s.test = s.test[:0]
		for _, col := range s.Out.Cols {
			s.test = append(s.test, s.attrs[col.ID])
		}
		test = s.test
	}
	s.plan.Reset(s.Keep, test)
	return nil
}

// recycle implements recycler: the decode slab is refilled per batch.
func (s *TableScan) recycle() { s.slab.granted = true }

// NextBatch implements Operator: one storage-scanner loop per batch,
// decoding each record out of the scanner's page view into a slab shared
// by the batch's tuples (see Batch), its strings cut out of one string per
// page (see types.StrArea). A record's cells that Pred reads are decoded
// and tested first; its other cells only if it passes. It reads no record
// beyond the max-th that passes Pred.
func (s *TableScan) NextBatch(ctx *Context, max int) (Batch, bool, error) {
	if s.sc == nil {
		return nil, false, fmt.Errorf("TableScan(%s): NextBatch before Open", s.Table.Def.Name)
	}
	if err := checkMax(max); err != nil {
		return nil, false, err
	}
	width := s.plan.Width()
	out := s.win[:0]
	s.slab.next()
	for len(out) < max {
		rid, raw, ok, err := s.sc.Next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			break
		}
		if s.slab.room(width, width*min(max-len(out), s.slabRows)) {
			s.slabRows = min(2*s.slabRows, ctx.BatchLen())
		}
		t := s.slab.cut(width)
		if err := s.decode(t, rid, raw); err != nil {
			return nil, false, fmt.Errorf("TableScan(%s): %w", s.Table.Def.Name, err)
		}
		if s.Pred != nil {
			ok, err := expr.Holds(s.Pred, ctx.Env, t)
			if err != nil {
				return nil, false, fmt.Errorf("Scan %s: %w", s.Pred, err)
			}
			if !ok {
				s.slab.retract(width)
				continue
			}
			s.plan.Rest(t)
		}
		out = append(out, t)
	}
	s.win = out
	if len(out) == 0 {
		return nil, false, nil
	}
	return out, true, nil
}

// decode walks the record Next returned, raw at rid, and decodes the
// cells the plan tests into t. The strings a scan keeps are cut out of one
// string per page. A scan that keeps no string column decodes raw alone:
// it has no string to cut, and finding each record in its page's area
// cost local_join's Orders scan about a tenth of the query.
func (s *TableScan) decode(t types.Tuple, rid storage.RID, raw []byte) error {
	if !s.cutStrs {
		return s.plan.Tested(t, raw)
	}
	area, off := s.sc.Area()
	if int64(rid.Page) != s.page {
		s.strs.Reset(area)
		s.page = int64(rid.Page)
	}
	return s.plan.TestedIn(t, &s.strs, off, len(raw))
}

// Close implements Operator.
func (s *TableScan) Close() error {
	if s.sc == nil {
		return nil
	}
	err := s.sc.Close()
	s.sc = nil
	s.strs.Reset(nil)
	clear(s.win[:cap(s.win)])
	s.slab.close()
	return err
}

// Name implements Operator.
func (s *TableScan) Name() string { return "Scan" }

// Describe implements Operator.
func (s *TableScan) Describe() string {
	alias := ""
	if len(s.Out.Cols) > 0 && s.Out.Cols[0].Table != s.Table.Def.Name {
		alias = " " + s.Out.Cols[0].Table
	}
	if s.Pred != nil {
		return fmt.Sprintf("%s%s [%s]", s.Table.Def.Name, alias, s.Pred)
	}
	return s.Table.Def.Name + alias
}

// ValuesScan replays an in-memory tuple list; it backs tests and internal
// tools that need a leaf without storage.
type ValuesScan struct {
	leaf
	Out  *schema.Schema
	Rows []types.Tuple
	rest []types.Tuple // the unread tail of Rows
}

// NewValuesScan builds an in-memory scan.
func NewValuesScan(out *schema.Schema, rows []types.Tuple) *ValuesScan {
	return &ValuesScan{Out: out, Rows: rows}
}

// Schema implements Operator.
func (v *ValuesScan) Schema() *schema.Schema { return v.Out }

// Open implements Operator.
func (v *ValuesScan) Open(ctx *Context) error { v.rest = v.Rows; return nil }

// NextBatch implements Operator by handing out windows of the row list;
// callers must not mutate the returned slice (see Batch).
func (v *ValuesScan) NextBatch(ctx *Context, max int) (Batch, bool, error) {
	return TakeBatch(&v.rest, max)
}

// Close implements Operator.
func (v *ValuesScan) Close() error { return nil }

// Name implements Operator.
func (v *ValuesScan) Name() string { return "Values" }

// Describe implements Operator.
func (v *ValuesScan) Describe() string { return fmt.Sprintf("%d rows", len(v.Rows)) }
