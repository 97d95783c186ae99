package storage

import (
	"fmt"
	"os"
	"sync"
)

// RID identifies a record within a heap file by page and slot.
type RID struct {
	Page uint32
	Slot uint16
}

// String renders the RID for diagnostics.
func (r RID) String() string { return fmt.Sprintf("(%d,%d)", r.Page, r.Slot) }

// HeapFile is an unordered file of variable-length records stored in
// slotted pages, accessed through a buffer pool. Records are inserted and
// scanned; none is updated or deleted.
type HeapFile struct {
	f  *os.File
	bp *BufferPool
	// wmu serializes record mutations (insert hint + page writes). Readers
	// coordinate with writers at a higher layer (core.DB's RW lock).
	wmu sync.Mutex
	// hint: last page that accepted an insert, to avoid rescanning.
	insertHint uint32
}

// OpenHeapFile opens (creating if necessary) a heap file at path with the
// given buffer-pool frame budget.
func OpenHeapFile(path string, poolFrames int) (*HeapFile, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("open heap file %s: %w", path, err)
	}
	bp, err := NewBufferPool(f, poolFrames)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &HeapFile{f: f, bp: bp}, nil
}

// Close flushes dirty pages and closes the file.
func (h *HeapFile) Close() error {
	if err := h.bp.FlushAll(); err != nil {
		h.f.Close()
		return err
	}
	return h.f.Close()
}

// NumPages returns the page count.
func (h *HeapFile) NumPages() uint32 { return h.bp.NumPages() }

// Pool exposes the buffer pool (for stats in tests).
func (h *HeapFile) Pool() *BufferPool { return h.bp }

// Insert appends a record, returning its RID.
func (h *HeapFile) Insert(rec []byte) (RID, error) {
	h.wmu.Lock()
	defer h.wmu.Unlock()
	if len(rec) > MaxRecordSize {
		return RID{}, fmt.Errorf("record of %d bytes exceeds max %d", len(rec), MaxRecordSize)
	}
	// Try the hint page first, then fall back to appending a new page.
	if h.bp.NumPages() > 0 {
		p, err := h.bp.Pin(h.insertHint)
		if err != nil {
			return RID{}, err
		}
		if p.CanFit(len(rec)) {
			slot, err := p.Insert(rec)
			if err != nil {
				h.bp.Unpin(h.insertHint, false)
				return RID{}, err
			}
			if err := h.bp.Unpin(h.insertHint, true); err != nil {
				return RID{}, err
			}
			return RID{Page: h.insertHint, Slot: uint16(slot)}, nil
		}
		if err := h.bp.Unpin(h.insertHint, false); err != nil {
			return RID{}, err
		}
	}
	pageNo, p, err := h.bp.AppendPage()
	if err != nil {
		return RID{}, err
	}
	slot, err := p.Insert(rec)
	if err != nil {
		h.bp.Unpin(pageNo, false)
		return RID{}, err
	}
	if err := h.bp.Unpin(pageNo, true); err != nil {
		return RID{}, err
	}
	h.insertHint = pageNo
	return RID{Page: pageNo, Slot: uint16(slot)}, nil
}

// Flush writes all dirty pages back to disk without closing.
func (h *HeapFile) Flush() error { return h.bp.FlushAll() }

// Scanner iterates over the records of a heap file in (page, slot)
// order. It pins at most one page at a time.
type Scanner struct {
	h      *HeapFile
	page   uint32
	slot   int
	pinned *Page
	done   bool
}

// NewScanner returns a scanner positioned before the first record.
func (h *HeapFile) NewScanner() *Scanner {
	return &Scanner{h: h, slot: -1}
}

// Next advances to the next record, returning its RID and its bytes.
// The bytes are a view of the page the scanner keeps pinned, valid until
// the next Next or Close: a caller that retains them copies them (decoding
// a tuple does — types.DecodePlan.Tested copies each string out, and
// TestedIn cuts them out of one copy of the page's record area, see
// Area). Nothing writes the page under the view because readers exclude
// writers one layer up (core.DB's RW lock). It returns ok=false when the
// scan is exhausted.
func (s *Scanner) Next() (RID, []byte, bool, error) {
	if s.done {
		return RID{}, nil, false, nil
	}
	for {
		if s.pinned == nil {
			if s.page >= s.h.bp.NumPages() {
				s.done = true
				return RID{}, nil, false, nil
			}
			p, err := s.h.bp.Pin(s.page)
			if err != nil {
				s.done = true
				return RID{}, nil, false, err
			}
			s.pinned = p
			s.slot = -1
		}
		s.slot++
		if s.slot >= s.pinned.NumSlots() {
			if err := s.h.bp.Unpin(s.page, false); err != nil {
				s.done = true
				return RID{}, nil, false, err
			}
			s.pinned = nil
			s.page++
			continue
		}
		off, n := s.pinned.slot(s.slot)
		return RID{Page: s.page, Slot: uint16(s.slot)}, s.pinned.buf[off : off+n], true, nil
	}
}

// Area returns the record area of the page the record Next returned lies
// on — the bytes every record of that page lies in — and the record's
// offset in it. Like the record, it is a view valid until the next Next or
// Close, and it is the same bytes for every record of one page.
func (s *Scanner) Area() ([]byte, int) {
	if s.pinned == nil {
		return nil, 0
	}
	free := s.pinned.freePtr()
	off, _ := s.pinned.slot(s.slot)
	return s.pinned.buf[free:], off - free
}

// Close releases any pinned page. Safe to call multiple times.
func (s *Scanner) Close() error {
	if s.pinned != nil {
		err := s.h.bp.Unpin(s.page, false)
		s.pinned = nil
		s.done = true
		return err
	}
	s.done = true
	return nil
}
