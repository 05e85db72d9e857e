package storage

import "fmt"

// HeapFile is an unordered file of variable-length records stored in slotted
// pages. Records are addressed by stable RIDs. Object extensions, GMR
// extensions, and the RRR are all heap files, so every access to them flows
// through the buffer pool and is charged to the simulated clock.
type HeapFile struct {
	pool  *BufferPool
	pages []PageID
	name  string

	// writeThrough applies the FORCE policy: every mutation is written to
	// disk immediately (NewForcedHeapFile). Used for the GMR manager's
	// auxiliary structures, whose update cost the paper measures.
	writeThrough bool

	// freeHint caches the index into pages of the last page an insert
	// succeeded on, so sequential loads cluster records — the paper relies
	// on a Cuboid and its Vertex instances being created together landing
	// on the same page.
	freeHint int
	count    int
}

// NewHeapFile creates an empty heap file named name (for diagnostics) backed
// by pool.
func NewHeapFile(pool *BufferPool, name string) *HeapFile {
	return &HeapFile{pool: pool, name: name, freeHint: -1}
}

// NewForcedHeapFile creates a heap file with the FORCE write policy: every
// mutating operation flushes the touched page to disk.
func NewForcedHeapFile(pool *BufferPool, name string) *HeapFile {
	return &HeapFile{pool: pool, name: name, freeHint: -1, writeThrough: true}
}

// HeapDir is the persistent directory of a heap file: everything needed to
// reconstruct the HeapFile handle over already-restored pages. It is part of
// the durable checkpoint's metadata blob.
type HeapDir struct {
	Name     string   `json:"name"`
	Pages    []PageID `json:"pages,omitempty"`
	FreeHint int      `json:"freeHint"`
	Count    int      `json:"count"`
}

// Directory captures the heap file's persistent directory.
func (h *HeapFile) Directory() HeapDir {
	return HeapDir{
		Name:     h.name,
		Pages:    append([]PageID(nil), h.pages...),
		FreeHint: h.freeHint,
		Count:    h.count,
	}
}

// RestoreHeapFile reconstructs a heap file from its persisted directory. The
// pages themselves must already be present on the (restored) disk; the pages
// are re-tagged with the file's owner name so per-file fault targeting keeps
// working after recovery.
func RestoreHeapFile(pool *BufferPool, dir HeapDir, writeThrough bool) *HeapFile {
	h := &HeapFile{
		pool:         pool,
		pages:        append([]PageID(nil), dir.Pages...),
		name:         dir.Name,
		writeThrough: writeThrough,
		freeHint:     dir.FreeHint,
		count:        dir.Count,
	}
	for _, id := range h.pages {
		pool.disk.tagOwner(id, h.name)
	}
	return h
}

// unpinDirty releases a dirtied page, forcing it to disk under the FORCE
// policy.
func (h *HeapFile) unpinDirty(id PageID) error {
	if err := h.pool.Unpin(id, true); err != nil {
		return err
	}
	if h.writeThrough {
		return h.pool.FlushPage(id)
	}
	return nil
}

// Name returns the diagnostic name of the file.
func (h *HeapFile) Name() string { return h.name }

// Count returns the number of live records.
func (h *HeapFile) Count() int { return h.count }

// NumPages returns the number of pages owned by the file.
func (h *HeapFile) NumPages() int { return len(h.pages) }

// maxRecordSize is the largest record a heap file accepts: one page minus
// header and one slot entry.
const maxRecordSize = PageSize - pageHeaderSize - slotSize

// Insert stores rec and returns its RID.
func (h *HeapFile) Insert(rec []byte) (RID, error) {
	if len(rec) > maxRecordSize {
		return RID{}, fmt.Errorf("storage: record of %d bytes exceeds page capacity in %s", len(rec), h.name)
	}
	// Try the hinted page first, then fall back to a fresh page. Trying
	// every existing page would both thrash the buffer pool and destroy the
	// creation-order clustering the cost model depends on. insertSlack
	// bytes are left free on each page so records that later grow (e.g. by
	// an ObjDepFct mark) can be updated in place instead of relocating —
	// relocation would decluster objects from their subobjects.
	const insertSlack = PageSize / 8
	if h.freeHint >= 0 && h.freeHint < len(h.pages) {
		id := h.pages[h.freeHint]
		f, err := h.pool.Pin(id)
		if err != nil {
			return RID{}, err
		}
		var slot uint16
		inserted := false
		h.pool.MutatePage(f, func() {
			p := slotted{&f.Data}
			p.initIfNeeded()
			if p.freeSpace() >= len(rec)+insertSlack {
				p.compact()
				slot, inserted = p.insert(rec)
			}
		})
		if inserted {
			if err := h.unpinDirty(id); err != nil {
				return RID{}, err
			}
			h.count++
			return RID{Page: id, Slot: slot}, nil
		}
		if err := h.pool.Unpin(id, false); err != nil {
			return RID{}, err
		}
	}
	f, err := h.pool.PinNewOwned(h.name)
	if err != nil {
		return RID{}, err
	}
	id := f.ID()
	var slot uint16
	var ok bool
	h.pool.MutatePage(f, func() {
		p := slotted{&f.Data}
		p.initIfNeeded()
		slot, ok = p.insert(rec)
	})
	if !ok {
		if err := h.pool.Unpin(id, false); err != nil {
			return RID{}, err
		}
		return RID{}, fmt.Errorf("storage: record of %d bytes does not fit fresh page in %s", len(rec), h.name)
	}
	if err := h.unpinDirty(id); err != nil {
		return RID{}, err
	}
	h.pages = append(h.pages, id)
	h.freeHint = len(h.pages) - 1
	h.count++
	return RID{Page: id, Slot: slot}, nil
}

// View calls fn with the record stored at rid while its page is pinned. It
// charges the page pin and copies nothing. The slice aliases the buffer-pool
// frame: it is valid only during the call, and fn must neither retain nor
// modify it. View returns fn's error.
func (h *HeapFile) View(rid RID, fn func(rec []byte) error) error {
	f, err := h.pool.Pin(rid.Page)
	if err != nil {
		return err
	}
	p := slotted{&f.Data}
	data, ok := p.read(rid.Slot)
	var ferr error
	if ok {
		ferr = fn(data)
	}
	if err := h.pool.Unpin(rid.Page, false); err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("storage: no record at %v in %s", rid, h.name)
	}
	return ferr
}

// Touch charges the read of the record at rid exactly as a View with an
// empty callback does — one logical page read — without a callback and,
// when the page is resident, under one stripe lock instead of a Pin and an
// Unpin. It reports a missing record as View does.
func (h *HeapFile) Touch(rid RID) error {
	slots := [1]uint16{rid.Slot}
	_, err := h.TouchRun(rid.Page, slots[:])
	return err
}

// TouchRun charges the reads of the records in slots of one page, in order,
// exactly as len(slots) Touch calls do (see BufferPool.touch): the same
// logical reads, hits, misses and recency stamp. It stops at the first slot
// that holds no record, returning how many records were read before it and
// View's error for it.
func (h *HeapFile) TouchRun(page PageID, slots []uint16) (int, error) {
	n, err := h.pool.touch(page, len(slots), func(data *[PageSize]byte) int {
		p := slotted{data}
		for i, s := range slots {
			if _, ok := p.read(s); !ok {
				return i
			}
		}
		return len(slots)
	})
	if err != nil {
		return 0, err
	}
	if n < len(slots) {
		return n, fmt.Errorf("storage: no record at %v in %s", RID{Page: page, Slot: slots[n]}, h.name)
	}
	return n, nil
}

// Read returns a copy of the record stored at rid.
func (h *HeapFile) Read(rid RID) ([]byte, error) {
	var out []byte
	err := h.View(rid, func(rec []byte) error {
		out = make([]byte, len(rec))
		copy(out, rec)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ReadSnapshot returns a copy of the record stored at rid without pinning,
// charging, or disturbing the buffer pool — the read path of the object
// directory audit, which must not perturb the simulated clock (see
// BufferPool.ReadSnapshot for the no-concurrent-writer contract).
func (h *HeapFile) ReadSnapshot(rid RID) ([]byte, error) {
	var page [PageSize]byte
	if err := h.pool.ReadSnapshot(rid.Page, &page); err != nil {
		return nil, err
	}
	p := slotted{&page}
	data, ok := p.read(rid.Slot)
	if !ok {
		return nil, fmt.Errorf("storage: no record at %v in %s", rid, h.name)
	}
	out := make([]byte, len(data))
	copy(out, data)
	return out, nil
}

// ReadVersioned returns a copy of the record stored at rid as of MVCC
// version ver — charge-free like ReadSnapshot, but safe concurrently with a
// writer: the page state is reconstructed from the copy-on-write page
// overlay (see BufferPool.ReadVersioned).
func (h *HeapFile) ReadVersioned(rid RID, ver uint64) ([]byte, error) {
	var page [PageSize]byte
	if err := h.pool.ReadVersioned(rid.Page, ver, &page); err != nil {
		return nil, err
	}
	p := slotted{&page}
	data, ok := p.read(rid.Slot)
	if !ok {
		return nil, fmt.Errorf("storage: no record at %v in %s", rid, h.name)
	}
	out := make([]byte, len(data))
	copy(out, data)
	return out, nil
}

// Update rewrites the record at rid. If the new record no longer fits on its
// page the record moves and the new RID is returned; the caller must update
// any mapping it keeps.
func (h *HeapFile) Update(rid RID, rec []byte) (RID, error) {
	if len(rec) > maxRecordSize {
		return RID{}, fmt.Errorf("storage: record of %d bytes exceeds page capacity in %s", len(rec), h.name)
	}
	f, err := h.pool.Pin(rid.Page)
	if err != nil {
		return RID{}, err
	}
	updated := false
	h.pool.MutatePage(f, func() {
		p := slotted{&f.Data}
		if p.update(rid.Slot, rec) {
			updated = true
			return
		}
		// Does not fit: delete here, insert elsewhere (below).
		p.del(rid.Slot)
	})
	if updated {
		if err := h.unpinDirty(rid.Page); err != nil {
			return RID{}, err
		}
		return rid, nil
	}
	if err := h.unpinDirty(rid.Page); err != nil {
		return RID{}, err
	}
	h.count--
	return h.Insert(rec)
}

// Delete removes the record at rid.
func (h *HeapFile) Delete(rid RID) error {
	f, err := h.pool.Pin(rid.Page)
	if err != nil {
		return err
	}
	var ok bool
	h.pool.MutatePage(f, func() {
		p := slotted{&f.Data}
		ok = p.del(rid.Slot)
	})
	if !ok {
		if err := h.pool.Unpin(rid.Page, false); err != nil {
			return err
		}
		return fmt.Errorf("storage: delete of missing record %v in %s", rid, h.name)
	}
	if err := h.unpinDirty(rid.Page); err != nil {
		return err
	}
	h.count--
	return nil
}

// Relocate rewrites the file's records into fresh pages in exactly the given
// order and returns the old-RID → new-RID mapping. order must name every
// live record exactly once — relocation is a whole-file operation, so the
// caller (the clustering pass) decides the complete placement. The move is
// all-or-nothing: phase 1 reads every record through the charged buffer-pool
// path (in order, so the simulated cost is deterministic); phase 2 packs the
// records into freshly allocated pages with the same insertSlack headroom
// the insert path leaves. Only after both phases succeed are the old pages
// freed and the page list swapped; a fault in either phase aborts with the
// file unchanged (phase-2 pages allocated so far are returned to the disk).
func (h *HeapFile) Relocate(order []RID) (map[RID]RID, error) {
	if len(order) != h.count {
		return nil, fmt.Errorf("storage: relocate order names %d records, %s holds %d",
			len(order), h.name, h.count)
	}
	// Phase 1: read everything in target order (charged).
	recs := make([][]byte, len(order))
	seen := make(map[RID]struct{}, len(order))
	for i, rid := range order {
		if _, dup := seen[rid]; dup {
			return nil, fmt.Errorf("storage: relocate order repeats record %v in %s", rid, h.name)
		}
		seen[rid] = struct{}{}
		rec, err := h.Read(rid)
		if err != nil {
			return nil, err
		}
		recs[i] = rec
	}
	// Phase 2: pack into fresh pages. abort unwinds every new page on error.
	var newPages []PageID
	var cur *Frame
	abort := func(err error) (map[RID]RID, error) {
		if cur != nil {
			_ = h.pool.Unpin(cur.ID(), true)
		}
		for _, id := range newPages {
			_ = h.pool.FreePage(id)
		}
		return nil, err
	}
	const insertSlack = PageSize / 8
	remap := make(map[RID]RID, len(order))
	for i, rec := range recs {
		var slot uint16
		inserted := false
		if cur != nil {
			h.pool.MutatePage(cur, func() {
				p := slotted{&cur.Data}
				if p.freeSpace() >= len(rec)+insertSlack {
					slot, inserted = p.insert(rec)
				}
			})
		}
		if !inserted {
			if cur != nil {
				if err := h.unpinDirty(cur.ID()); err != nil {
					cur = nil
					return abort(err)
				}
				cur = nil
			}
			f, err := h.pool.PinNewOwned(h.name)
			if err != nil {
				return abort(err)
			}
			cur = f
			newPages = append(newPages, f.ID())
			h.pool.MutatePage(cur, func() {
				p := slotted{&cur.Data}
				p.initIfNeeded()
				slot, inserted = p.insert(rec)
			})
			if !inserted {
				return abort(fmt.Errorf("storage: record of %d bytes does not fit fresh page in %s",
					len(rec), h.name))
			}
		}
		remap[order[i]] = RID{Page: cur.ID(), Slot: slot}
	}
	if cur != nil {
		if err := h.unpinDirty(cur.ID()); err != nil {
			cur = nil
			return abort(err)
		}
		cur = nil
	}
	// Commit: release the old pages and adopt the new layout.
	old := h.pages
	h.pages = newPages
	h.freeHint = len(h.pages) - 1
	for _, id := range old {
		if err := h.pool.FreePage(id); err != nil {
			return nil, err
		}
	}
	return remap, nil
}

// Compact rewrites the file's records in their current scan order — a
// relocation that preserves placement but squeezes out the slack deleted
// records left behind, returning emptied pages to the disk's free list. The
// scan that discovers the order is charged like any other scan.
func (h *HeapFile) Compact() (map[RID]RID, error) {
	order := make([]RID, 0, h.count)
	if err := h.Scan(func(rid RID, _ []byte) bool {
		order = append(order, rid)
		return true
	}); err != nil {
		return nil, err
	}
	return h.Relocate(order)
}

// ProbePage models a hashed-access probe: it reads the bucket page selected
// by hash (charging the page access) without interpreting its contents. The
// RRR uses it to charge lookups that find nothing — the paper's point in
// Section 5.2 is precisely that such probes are not free.
func (h *HeapFile) ProbePage(hash uint64) error {
	if len(h.pages) == 0 {
		return nil
	}
	id := h.pages[hash%uint64(len(h.pages))]
	if _, err := h.pool.Pin(id); err != nil {
		return err
	}
	return h.pool.Unpin(id, false)
}

// Scan calls fn for every live record in page order. The record slice is
// only valid during the callback. Iteration stops early if fn returns false.
func (h *HeapFile) Scan(fn func(RID, []byte) bool) error {
	for _, id := range h.pages {
		f, err := h.pool.Pin(id)
		if err != nil {
			return err
		}
		p := slotted{&f.Data}
		n := p.numSlots()
		stop := false
		for i := uint16(0); i < n && !stop; i++ {
			if data, ok := p.read(i); ok {
				if !fn(RID{Page: id, Slot: i}, data) {
					stop = true
				}
			}
		}
		if err := h.pool.Unpin(id, false); err != nil {
			return err
		}
		if stop {
			return nil
		}
	}
	return nil
}
