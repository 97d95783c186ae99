package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

// ---------------------------------------------------------------------------
// Page

func TestPageInsertGet(t *testing.T) {
	var p Page
	p.Reset()
	recs := [][]byte{[]byte("alpha"), []byte("beta"), []byte("")}
	var slots []int
	for _, r := range recs {
		s, err := p.Insert(r)
		if err != nil {
			t.Fatal(err)
		}
		slots = append(slots, s)
	}
	for i, s := range slots {
		got, err := p.Get(s)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, recs[i]) {
			t.Errorf("slot %d: got %q, want %q", s, got, recs[i])
		}
	}
	if p.NumSlots() != 3 {
		t.Errorf("NumSlots = %d", p.NumSlots())
	}
}

func TestPageFull(t *testing.T) {
	var p Page
	p.Reset()
	rec := make([]byte, 512)
	n := 0
	for p.CanFit(len(rec)) {
		if _, err := p.Insert(rec); err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n == 0 {
		t.Fatal("no records fit")
	}
	if _, err := p.Insert(rec); err == nil {
		t.Error("insert into full page should error")
	}
	// Oversized record.
	if _, err := p.Insert(make([]byte, MaxRecordSize+1)); err == nil {
		t.Error("oversized record should error")
	}
}

func TestPageBoundsChecks(t *testing.T) {
	var p Page
	p.Reset()
	if _, err := p.Get(0); err == nil {
		t.Error("Get on empty page")
	}
}

// ---------------------------------------------------------------------------
// HeapFile

func openTemp(t *testing.T, frames int) *HeapFile {
	t.Helper()
	h, err := OpenHeapFile(filepath.Join(t.TempDir(), "t.tbl"), frames)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })
	return h
}

func TestHeapInsertScan(t *testing.T) {
	h := openTemp(t, 8)
	const n = 500
	want := make(map[string]bool)
	for i := 0; i < n; i++ {
		rec := []byte(fmt.Sprintf("record-%04d-%s", i, bytes.Repeat([]byte("x"), i%97)))
		if _, err := h.Insert(rec); err != nil {
			t.Fatal(err)
		}
		want[string(rec)] = true
	}
	sc := h.NewScanner()
	defer sc.Close()
	got := 0
	for {
		_, rec, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if !want[string(rec)] {
			t.Fatalf("unexpected record %q", rec)
		}
		got++
	}
	if got != n {
		t.Fatalf("scanned %d records, want %d", got, n)
	}
	if h.NumPages() < 2 {
		t.Error("expected multiple pages")
	}
}

func TestHeapPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "persist.tbl")
	h, err := OpenHeapFile(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	var rids []RID
	for i := 0; i < 100; i++ {
		rid, err := h.Insert([]byte(fmt.Sprintf("v%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen and read every record back, in insertion order.
	h2, err := OpenHeapFile(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	sc := h2.NewScanner()
	defer sc.Close()
	for i, rid := range rids {
		got, raw, ok, err := sc.Next()
		if err != nil || !ok {
			t.Fatalf("record %d: ok=%v err=%v", i, ok, err)
		}
		if got != rid || string(raw) != fmt.Sprintf("v%d", i) {
			t.Errorf("rid %v: got %q at %v", rid, raw, got)
		}
	}
	if _, _, ok, _ := sc.Next(); ok {
		t.Error("the reopened file holds more records than were inserted")
	}
}

func TestBufferPoolEviction(t *testing.T) {
	h := openTemp(t, 2) // tiny pool forces eviction
	for i := 0; i < 2000; i++ {
		if _, err := h.Insert(bytes.Repeat([]byte("z"), 100)); err != nil {
			t.Fatal(err)
		}
	}
	if h.NumPages() < 10 {
		t.Fatalf("want many pages, got %d", h.NumPages())
	}
	// Full scan with a 2-frame pool must evict and re-read correctly.
	sc := h.NewScanner()
	defer sc.Close()
	n := 0
	for {
		_, rec, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if len(rec) != 100 {
			t.Fatalf("bad record length %d", len(rec))
		}
		n++
	}
	if n != 2000 {
		t.Fatalf("scan count %d", n)
	}
	if h.Pool().Evictions == 0 {
		t.Error("expected evictions with a 2-frame pool")
	}
}

func TestBufferPoolPinAccounting(t *testing.T) {
	h := openTemp(t, 4)
	if _, err := h.Insert([]byte("x")); err != nil {
		t.Fatal(err)
	}
	bp := h.Pool()
	p, err := bp.Pin(0)
	if err != nil {
		t.Fatal(err)
	}
	if p == nil {
		t.Fatal("nil page")
	}
	if err := bp.Unpin(0, false); err != nil {
		t.Fatal(err)
	}
	if err := bp.Unpin(0, false); err == nil {
		t.Error("unpin below zero should error")
	}
	if _, err := bp.Pin(9999); err == nil {
		t.Error("pin out of range should error")
	}
	if err := bp.Unpin(4242, false); err == nil {
		t.Error("unpin of non-resident page should error")
	}
}

func TestBufferPoolAllPinned(t *testing.T) {
	dir := t.TempDir()
	f, err := os.OpenFile(filepath.Join(dir, "x.tbl"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	bp, err := NewBufferPool(f, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, _, err := bp.AppendPage(); err != nil {
			t.Fatal(err)
		}
	}
	// Both frames pinned: appending a third page must fail cleanly.
	if _, _, err := bp.AppendPage(); err == nil {
		t.Error("append with all frames pinned should error")
	}
	bp.Unpin(0, false)
	if _, _, err := bp.AppendPage(); err != nil {
		t.Errorf("append after unpin: %v", err)
	}
}

func TestScannerCloseMidway(t *testing.T) {
	h := openTemp(t, 4)
	for i := 0; i < 50; i++ {
		h.Insert([]byte("row"))
	}
	sc := h.NewScanner()
	if _, _, ok, err := sc.Next(); err != nil || !ok {
		t.Fatal("first next")
	}
	if err := sc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sc.Close(); err != nil {
		t.Fatal("double close must be safe")
	}
	// After close, Next reports exhaustion.
	if _, _, ok, _ := sc.Next(); ok {
		t.Error("next after close")
	}
}

// Property: a scan produces exactly the records inserted, each at the RID
// its insert returned, whatever their sizes.
func TestHeapPropertyLiveSet(t *testing.T) {
	f := func(seed int64) bool {
		dir, err := os.MkdirTemp("", "heapprop-*")
		if err != nil {
			return false
		}
		defer os.RemoveAll(dir)
		h, err := OpenHeapFile(filepath.Join(dir, "p.tbl"), 4)
		if err != nil {
			return false
		}
		defer h.Close()
		rng := rand.New(rand.NewSource(seed))
		live := make(map[RID]string)
		for i := 0; i < 300; i++ {
			val := fmt.Sprintf("v%d-%d-%s", seed, i, bytes.Repeat([]byte("x"), rng.Intn(100)))
			rid, err := h.Insert([]byte(val))
			if err != nil {
				return false
			}
			live[rid] = val
		}
		// Scan must produce exactly the live set.
		sc := h.NewScanner()
		defer sc.Close()
		got := make(map[RID]string)
		for {
			rid, rec, ok, err := sc.Next()
			if err != nil {
				return false
			}
			if !ok {
				break
			}
			got[rid] = string(rec)
		}
		if len(got) != len(live) {
			return false
		}
		for rid, val := range live {
			if got[rid] != val {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestScannerNextIsAViewUntilTheNextCall pins Scanner.Next's contract: the
// bytes are the record, served from the pinned page without a copy (no
// allocation per record), and stay the record until the next Next — also
// across the page boundary, where the scanner unpins the old page only
// once the caller asks for more.
func TestScannerNextIsAViewUntilTheNextCall(t *testing.T) {
	h := openTemp(t, 2)
	const n = 200
	rec := func(i int) string { return fmt.Sprintf("record-%04d-%s", i, bytes.Repeat([]byte("x"), 60)) }
	for i := 0; i < n; i++ {
		if _, err := h.Insert([]byte(rec(i))); err != nil {
			t.Fatal(err)
		}
	}
	if h.NumPages() < 3 {
		t.Fatalf("want several pages, got %d", h.NumPages())
	}
	sc := h.NewScanner()
	defer sc.Close()
	// A second scanner churns the 2-frame pool between the first one's
	// steps: the page under the view is pinned, so it must not be evicted.
	churn := func() {
		other := h.NewScanner()
		defer other.Close()
		for {
			if _, _, ok, err := other.Next(); err != nil || !ok {
				return
			}
		}
	}
	for i := 0; i < n; i++ {
		_, raw, ok, err := sc.Next()
		if err != nil || !ok {
			t.Fatalf("record %d: ok=%v err=%v", i, ok, err)
		}
		if i%37 == 0 {
			churn()
		}
		if string(raw) != rec(i) {
			t.Fatalf("record %d reads %q before the next call", i, raw)
		}
	}
	if allocs := testing.AllocsPerRun(1, func() {
		s := h.NewScanner()
		for {
			if _, _, ok, _ := s.Next(); !ok {
				break
			}
		}
		s.Close()
	}); allocs > n/4 {
		t.Errorf("a %d-record scan made %.0f heap objects: Next copies records again", n, allocs)
	}
}

// TestColdScanReusesEvictedFrames: a miss in a full pool reuses the frame
// it evicts — page bytes and LRU element — so a full scan of a table many
// times the pool's size, once the pool has filled, allocates nothing.
func TestColdScanReusesEvictedFrames(t *testing.T) {
	h := openTemp(t, 2)
	const n = 5000
	for i := 0; i < n; i++ {
		if _, err := h.Insert([]byte(fmt.Sprintf("row-%06d", i))); err != nil {
			t.Fatal(err)
		}
	}
	pages := h.NumPages()
	if pages < 8 {
		t.Fatalf("want many more pages than frames, got %d", pages)
	}
	// The first scan checks what every reused frame holds.
	s := h.NewScanner()
	for i := 0; ; i++ {
		_, raw, ok, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			if i != n {
				t.Fatalf("scanned %d records, want %d", i, n)
			}
			break
		}
		if want := fmt.Sprintf("row-%06d", i); string(raw) != want {
			t.Fatalf("record %d reads %q, want %q", i, raw, want)
		}
	}
	s.Close()
	_, _, ev0 := h.Pool().StatsSnapshot()
	rows := 0
	if allocs := testing.AllocsPerRun(1, func() {
		s := h.NewScanner()
		for {
			if _, _, ok, _ := s.Next(); !ok {
				break
			}
			rows++
		}
		s.Close()
	}); allocs != 0 {
		t.Errorf("a scan of %d pages through a 2-frame pool made %.0f heap objects, want 0", pages, allocs)
	}
	if rows != 2*n {
		t.Errorf("two scans read %d records, want %d", rows, 2*n)
	}
	if _, _, ev := h.Pool().StatsSnapshot(); ev-ev0 < 2*uint64(pages)-4 {
		t.Errorf("two scans evicted %d frames, want about one per page (%d pages)", ev-ev0, pages)
	}
}

// TestScannerAreaHoldsTheRecord: the record Next returns lies in Area at
// the offset Area gives, and every record of one page sees the same area.
func TestScannerAreaHoldsTheRecord(t *testing.T) {
	h := openTemp(t, 1)
	for i := 0; i < 300; i++ {
		if _, err := h.Insert([]byte(fmt.Sprintf("rec-%03d-%s", i, bytes.Repeat([]byte("y"), i%40)))); err != nil {
			t.Fatal(err)
		}
	}
	sc := h.NewScanner()
	defer sc.Close()
	areaLen := map[uint32]int{}
	for {
		rid, raw, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		area, off := sc.Area()
		if off < 0 || off+len(raw) > len(area) || !bytes.Equal(area[off:off+len(raw)], raw) {
			t.Fatalf("record %v is not at offset %d of its page's %d-byte area", rid, off, len(area))
		}
		if n, seen := areaLen[rid.Page]; seen && n != len(area) {
			t.Fatalf("page %d: area of %d bytes, then %d", rid.Page, n, len(area))
		}
		areaLen[rid.Page] = len(area)
	}
	if len(areaLen) < 2 {
		t.Fatalf("want several pages, got %d", len(areaLen))
	}
	if area, _ := sc.Area(); area != nil {
		t.Errorf("an exhausted scanner has an area of %d bytes", len(area))
	}
}
