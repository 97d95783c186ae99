// Package storage implements the on-disk layer of the engine: slotted
// pages, a pinning LRU buffer pool, and heap files of variable-length
// records. It corresponds to the storage manager of Redbase, the homegrown
// DBMS the WSQ/DSQ paper extended ("a page-level buffer and iterator-based
// query execution", Section 5).
package storage

import (
	"encoding/binary"
	"fmt"
)

// PageSize is the fixed size of every page in bytes.
const PageSize = 4096

// pageHeaderSize is the fixed header at the start of each slotted page:
// numSlots (2 bytes) and freePtr (2 bytes).
const pageHeaderSize = 4

// slotSize is the per-slot directory entry: offset (2 bytes), length
// (2 bytes).
const slotSize = 4

// Page is a slotted page: a slot directory grows forward from the header
// while record bodies grow backward from the end of the page. Records are
// only ever added: no statement updates or deletes one, so every slot
// holds a record and slot numbers are dense.
type Page struct {
	buf [PageSize]byte
}

// Reset initializes an empty page.
func (p *Page) Reset() {
	for i := range p.buf {
		p.buf[i] = 0
	}
	p.setNumSlots(0)
	p.setFreePtr(PageSize)
}

// Bytes exposes the raw page buffer (for I/O).
func (p *Page) Bytes() []byte { return p.buf[:] }

func (p *Page) numSlots() int      { return int(binary.LittleEndian.Uint16(p.buf[0:2])) }
func (p *Page) setNumSlots(n int)  { binary.LittleEndian.PutUint16(p.buf[0:2], uint16(n)) }
func (p *Page) freePtr() int       { return int(binary.LittleEndian.Uint16(p.buf[2:4])) }
func (p *Page) setFreePtr(off int) { binary.LittleEndian.PutUint16(p.buf[2:4], uint16(off)) }

func (p *Page) slot(i int) (off, length int) {
	base := pageHeaderSize + slotSize*i
	return int(binary.LittleEndian.Uint16(p.buf[base : base+2])),
		int(binary.LittleEndian.Uint16(p.buf[base+2 : base+4]))
}

func (p *Page) setSlot(i, off, length int) {
	base := pageHeaderSize + slotSize*i
	binary.LittleEndian.PutUint16(p.buf[base:base+2], uint16(off))
	binary.LittleEndian.PutUint16(p.buf[base+2:base+4], uint16(length))
}

// FreeSpace returns the bytes available for a new record (including its
// slot directory entry).
func (p *Page) FreeSpace() int {
	return p.freePtr() - (pageHeaderSize + slotSize*p.numSlots())
}

// CanFit reports whether a record of n bytes fits on the page.
func (p *Page) CanFit(n int) bool { return p.FreeSpace() >= n+slotSize }

// MaxRecordSize is the largest record a fresh page can hold.
const MaxRecordSize = PageSize - pageHeaderSize - slotSize

// Insert places a record on the page and returns its slot number.
func (p *Page) Insert(rec []byte) (int, error) {
	if len(rec) > MaxRecordSize {
		return 0, fmt.Errorf("record of %d bytes exceeds page capacity %d", len(rec), MaxRecordSize)
	}
	if !p.CanFit(len(rec)) {
		return 0, fmt.Errorf("page full: need %d bytes, have %d", len(rec)+slotSize, p.FreeSpace())
	}
	slot := p.numSlots()
	p.setNumSlots(slot + 1)
	off := p.freePtr() - len(rec)
	copy(p.buf[off:], rec)
	p.setFreePtr(off)
	p.setSlot(slot, off, len(rec))
	return slot, nil
}

// Get returns the record stored in the given slot. The returned slice
// aliases the page buffer and must be copied if retained.
func (p *Page) Get(slot int) ([]byte, error) {
	if slot < 0 || slot >= p.numSlots() {
		return nil, fmt.Errorf("slot %d out of range (page has %d slots)", slot, p.numSlots())
	}
	off, length := p.slot(slot)
	return p.buf[off : off+length], nil
}

// NumSlots returns the number of records on the page.
func (p *Page) NumSlots() int { return p.numSlots() }
