package storage

import (
	"encoding/binary"
	"fmt"
)

// Slotted page layout (within a 4096-byte page):
//
//	offset 0: numSlots  uint16 — number of slot directory entries
//	offset 2: freeLow   uint16 — first byte after the slot directory
//	offset 4: freeHigh  uint16 — first byte of the record heap (records grow
//	                             downward from the end of the page)
//	offset 6: slot directory — numSlots entries of {recOff uint16, recLen uint16}
//
// A slot with recOff == 0 is free (a deleted record); slot indices are stable
// so record ids remain valid across other insertions and deletions.

const (
	pageHeaderSize = 6
	slotSize       = 4
)

// RID identifies a record: a page and a slot within it.
type RID struct {
	Page PageID
	Slot uint16
}

// IsZero reports whether the RID is the zero value (no record).
func (r RID) IsZero() bool { return r.Page == 0 && r.Slot == 0 }

func (r RID) String() string { return fmt.Sprintf("%d.%d", r.Page, r.Slot) }

type slotted struct{ data *[PageSize]byte }

func (p slotted) numSlots() uint16     { return binary.LittleEndian.Uint16(p.data[0:]) }
func (p slotted) freeLow() uint16      { return binary.LittleEndian.Uint16(p.data[2:]) }
func (p slotted) freeHigh() uint16     { return binary.LittleEndian.Uint16(p.data[4:]) }
func (p slotted) setNumSlots(v uint16) { binary.LittleEndian.PutUint16(p.data[0:], v) }
func (p slotted) setFreeLow(v uint16)  { binary.LittleEndian.PutUint16(p.data[2:], v) }
func (p slotted) setFreeHigh(v uint16) { binary.LittleEndian.PutUint16(p.data[4:], v) }

func (p slotted) slot(i uint16) (off, length uint16) {
	base := pageHeaderSize + int(i)*slotSize
	return binary.LittleEndian.Uint16(p.data[base:]), binary.LittleEndian.Uint16(p.data[base+2:])
}

func (p slotted) setSlot(i uint16, off, length uint16) {
	base := pageHeaderSize + int(i)*slotSize
	binary.LittleEndian.PutUint16(p.data[base:], off)
	binary.LittleEndian.PutUint16(p.data[base+2:], length)
}

// initIfNeeded lazily formats a zeroed page as an empty slotted page.
func (p slotted) initIfNeeded() {
	if p.freeHigh() == 0 {
		p.setNumSlots(0)
		p.setFreeLow(pageHeaderSize)
		p.setFreeHigh(PageSize)
	}
}

// freeSpace returns the bytes available for a new record, accounting for the
// possible need of a fresh slot directory entry.
func (p slotted) freeSpace() int {
	space := int(p.freeHigh()) - int(p.freeLow())
	// Assume a new slot entry is needed; a reusable free slot only makes the
	// estimate conservative.
	space -= slotSize
	if space < 0 {
		return 0
	}
	return space
}

// insert places rec in the page and returns its slot. The caller must have
// verified freeSpace() >= len(rec) after a compact().
func (p slotted) insert(rec []byte) (uint16, bool) {
	n := p.numSlots()
	slot := n
	needSlot := true
	for i := uint16(0); i < n; i++ {
		if off, _ := p.slot(i); off == 0 {
			slot = i
			needSlot = false
			break
		}
	}
	low, high := int(p.freeLow()), int(p.freeHigh())
	need := len(rec)
	if needSlot {
		need += slotSize
	}
	if high-low < need {
		return 0, false
	}
	newHigh := high - len(rec)
	copy(p.data[newHigh:high], rec)
	p.setFreeHigh(uint16(newHigh))
	if needSlot {
		p.setNumSlots(n + 1)
		p.setFreeLow(uint16(low + slotSize))
	}
	p.setSlot(slot, uint16(newHigh), uint16(len(rec)))
	return slot, true
}

// read returns the record bytes stored in slot i (aliasing the page buffer).
func (p slotted) read(i uint16) ([]byte, bool) {
	if i >= p.numSlots() {
		return nil, false
	}
	off, length := p.slot(i)
	if off == 0 {
		return nil, false
	}
	return p.data[off : off+length], true
}

// del frees slot i. The record space is reclaimed on the next compact.
func (p slotted) del(i uint16) bool {
	if i >= p.numSlots() {
		return false
	}
	if off, _ := p.slot(i); off == 0 {
		return false
	}
	p.setSlot(i, 0, 0)
	return true
}

// update rewrites slot i with rec, compacting if necessary. It reports
// whether the record fit in place.
func (p slotted) update(i uint16, rec []byte) bool {
	off, length := p.slot(i)
	if off == 0 {
		return false
	}
	if int(length) >= len(rec) {
		copy(p.data[off:int(off)+len(rec)], rec)
		p.setSlot(i, off, uint16(len(rec)))
		return true
	}
	// Free the old copy, compact, and retry in place.
	p.setSlot(i, 0, 0)
	p.compact()
	low, high := int(p.freeLow()), int(p.freeHigh())
	if high-low < len(rec) {
		return false
	}
	newHigh := high - len(rec)
	copy(p.data[newHigh:high], rec)
	p.setFreeHigh(uint16(newHigh))
	p.setSlot(i, uint16(newHigh), uint16(len(rec)))
	return true
}

// compact slides all live records to the high end of the page in slot order,
// squeezing out holes left by deletions and updates. The records are laid out
// from one stack copy of the page, so compaction allocates nothing; bytes
// outside the rewritten record area are left as they were.
func (p slotted) compact() {
	src := *p.data
	n := p.numSlots()
	high := PageSize
	for i := uint16(0); i < n; i++ {
		off, length := p.slot(i)
		if off == 0 {
			continue
		}
		high -= int(length)
		copy(p.data[high:], src[off:off+length])
		p.setSlot(i, uint16(high), length)
	}
	p.setFreeHigh(uint16(high))
}
