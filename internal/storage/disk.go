// Package storage implements the paged storage substrate underneath the
// object base: a simulated disk, an LRU buffer pool, slotted pages, and heap
// files of variable-length records.
//
// It stands in for the EXODUS storage manager the paper's GOM prototype was
// built on. The disk is simulated: pages live in memory, but every physical
// read and write is counted and charged to a simulated clock (25 ms per I/O
// by default, the paper's DEC disk figure). All benchmark "times" reported by
// this reproduction are simulated seconds derived from those counters, so the
// cost model — a small buffer pool in front of a slow disk — matches the
// paper's measurement setup without requiring real hardware.
package storage

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// PageSize is the size of a disk page in bytes.
const PageSize = 4096

// PageID identifies a page on the simulated disk. Zero is never allocated.
type PageID uint32

// Default cost-model constants. The I/O cost follows the paper's 25 ms
// average access time; the CPU cost charges the interpreter and record
// (de)serialization work that would otherwise be free in a simulation.
const (
	DefaultIOCostMicros  = 25_000 // 25 ms per physical page read or write
	DefaultCPUCostMicros = 2      // 2 us per charged CPU operation
)

// Clock accumulates simulated work. The buffer pool charges physical I/Os;
// higher layers charge CPU operations (interpreter steps, comparisons,
// serialization). SimSeconds converts the counters into simulated time.
//
// The counters are mutated with atomic adds so that concurrent read-path
// queries (which charge CPU and logical-read work under the Database read
// lock) keep the accounting exact. The fields stay plain int64 so that
// snapshots remain value copies; Snapshot, SimMicros, and Sub use atomic
// loads so they are safe to call while other goroutines are charging.
type Clock struct {
	PhysReads  int64
	PhysWrites int64
	LogReads   int64
	LogWrites  int64
	CPUOps     int64

	IOCostMicros  int64
	CPUCostMicros int64
}

// NewClock returns a clock with the default cost constants.
func NewClock() *Clock {
	return &Clock{IOCostMicros: DefaultIOCostMicros, CPUCostMicros: DefaultCPUCostMicros}
}

// AddCPU charges n CPU operations.
func (c *Clock) AddCPU(n int64) { atomic.AddInt64(&c.CPUOps, n) }

func (c *Clock) addPhysRead()  { atomic.AddInt64(&c.PhysReads, 1) }
func (c *Clock) addPhysWrite() { atomic.AddInt64(&c.PhysWrites, 1) }
func (c *Clock) addLogRead()   { atomic.AddInt64(&c.LogReads, 1) }
func (c *Clock) addLogWrite()  { atomic.AddInt64(&c.LogWrites, 1) }

// addLogReads charges n logical reads at once (BufferPool.touch).
func (c *Clock) addLogReads(n int64) { atomic.AddInt64(&c.LogReads, n) }

// SimMicros returns the total simulated microseconds of work charged so far.
func (c *Clock) SimMicros() int64 {
	ios := atomic.LoadInt64(&c.PhysReads) + atomic.LoadInt64(&c.PhysWrites)
	return ios*c.IOCostMicros + atomic.LoadInt64(&c.CPUOps)*c.CPUCostMicros
}

// SimSeconds returns the total simulated seconds of work charged so far.
func (c *Clock) SimSeconds() float64 { return float64(c.SimMicros()) / 1e6 }

// Snapshot returns a copy of the current counters.
func (c *Clock) Snapshot() Clock {
	return Clock{
		PhysReads:     atomic.LoadInt64(&c.PhysReads),
		PhysWrites:    atomic.LoadInt64(&c.PhysWrites),
		LogReads:      atomic.LoadInt64(&c.LogReads),
		LogWrites:     atomic.LoadInt64(&c.LogWrites),
		CPUOps:        atomic.LoadInt64(&c.CPUOps),
		IOCostMicros:  c.IOCostMicros,
		CPUCostMicros: c.CPUCostMicros,
	}
}

// Sub returns the work performed since an earlier snapshot.
func (c *Clock) Sub(earlier Clock) Clock {
	d := c.Snapshot()
	d.PhysReads -= earlier.PhysReads
	d.PhysWrites -= earlier.PhysWrites
	d.LogReads -= earlier.LogReads
	d.LogWrites -= earlier.LogWrites
	d.CPUOps -= earlier.CPUOps
	return d
}

// Disk is the simulated disk: a growable array of pages plus I/O counters.
// It is only accessed through a BufferPool. Fault injection — scriptable
// plans that make selected physical I/Os fail — lives in fault.go.
//
// With durability enabled (EnableDurability, done by gomdb.OpenAt) the disk
// additionally tracks which pages have been written since the last durable
// checkpoint, and recycles page ids freed by a recovery restore. Neither
// mechanism charges the simulated clock or changes the allocation sequence of
// a fresh database, so the cost model is bit-identical whether durability is
// on or off.
type Disk struct {
	pages map[PageID]*[PageSize]byte
	next  PageID
	clock *Clock

	// free holds the page ids below next that are currently unallocated:
	// ids a recovery restore reclaimed (pages of dropped GMR/RRR/index
	// incarnations) and ids returned through Free (pages a heap relocation
	// or compaction released). Kept as coalesced extents sorted ascending
	// by start and consumed lowest-id-first, so allocation stays
	// deterministic and adjacent frees collapse into one extent instead of
	// fragmenting the accounting forever.
	free []freeExtent

	// durDirty, non-nil only when durability is enabled, is the set of pages
	// allocated or physically written since the last checkpoint — the pages
	// the next checkpoint must capture. Mutated under the buffer pool's miss
	// lock (all physical I/O is) and drained under the exclusive Database
	// lock.
	durDirty map[PageID]struct{}

	faults faultState
}

// NewDisk returns an empty disk charging I/O to clock.
func NewDisk(clock *Clock) *Disk {
	return &Disk{
		pages:  make(map[PageID]*[PageSize]byte),
		next:   1,
		clock:  clock,
		faults: faultState{owners: make(map[PageID]string)},
	}
}

// EnableDurability switches on dirty-page tracking for durable checkpoints.
func (d *Disk) EnableDurability() {
	if d.durDirty == nil {
		d.durDirty = make(map[PageID]struct{})
	}
}

// freeExtent is a run of Len consecutive unallocated page ids starting at
// Start. The free list keeps extents sorted and maximally coalesced: no two
// extents touch or overlap.
type freeExtent struct {
	Start PageID
	Len   PageID
}

// Allocate reserves a fresh zeroed page and returns its id, reusing freed ids
// (recovery restores, heap relocations) lowest-first before growing the
// address space. Allocation itself is not charged; the first write is.
func (d *Disk) Allocate() PageID {
	var id PageID
	if len(d.free) > 0 {
		id = d.free[0].Start
		d.free[0].Start++
		d.free[0].Len--
		if d.free[0].Len == 0 {
			d.free = d.free[1:]
		}
	} else {
		id = d.next
		d.next++
	}
	d.pages[id] = new([PageSize]byte)
	if d.durDirty != nil {
		d.durDirty[id] = struct{}{}
	}
	return id
}

// Free returns an allocated page to the free list, coalescing it with
// adjacent free extents. The page's content is discarded and the id becomes
// eligible for reuse by the next Allocate; a freed page is also dropped from
// the durable dirty set, so a checkpoint never tries to capture it. Freeing
// is bookkeeping, not I/O — nothing is charged to the simulated clock.
func (d *Disk) Free(id PageID) error {
	if _, ok := d.pages[id]; !ok {
		return fmt.Errorf("storage: free of unallocated page %d", id)
	}
	delete(d.pages, id)
	if d.durDirty != nil {
		delete(d.durDirty, id)
	}
	// Find the first extent starting after id, then merge with the
	// neighbors when they touch.
	i := sort.Search(len(d.free), func(i int) bool { return d.free[i].Start > id })
	mergePrev := i > 0 && d.free[i-1].Start+d.free[i-1].Len == id
	mergeNext := i < len(d.free) && id+1 == d.free[i].Start
	switch {
	case mergePrev && mergeNext:
		d.free[i-1].Len += 1 + d.free[i].Len
		d.free = append(d.free[:i], d.free[i+1:]...)
	case mergePrev:
		d.free[i-1].Len++
	case mergeNext:
		d.free[i].Start--
		d.free[i].Len++
	default:
		d.free = append(d.free, freeExtent{})
		copy(d.free[i+1:], d.free[i:])
		d.free[i] = freeExtent{Start: id, Len: 1}
	}
	return nil
}

// FreePageCount returns the total number of unallocated page ids below next
// — the reclaimed address space available for reuse.
func (d *Disk) FreePageCount() int {
	n := PageID(0)
	for _, e := range d.free {
		n += e.Len
	}
	return int(n)
}

// FreeExtentCount returns the number of maximal free extents. A delete-heavy
// workload followed by compaction should leave few, large extents; the
// fragmentation regression test pins this.
func (d *Disk) FreeExtentCount() int { return len(d.free) }

// NumPages returns the number of allocated pages.
func (d *Disk) NumPages() int { return len(d.pages) }

func (d *Disk) read(id PageID, dst *[PageSize]byte) error {
	if err := d.checkFault(FaultRead, id); err != nil {
		return err
	}
	p, ok := d.pages[id]
	if !ok {
		return fmt.Errorf("storage: read of unallocated page %d", id)
	}
	d.clock.addPhysRead()
	*dst = *p
	return nil
}

// readSnapshot copies a page without charging the clock, counting the I/O,
// or consulting fault injection — the un-simulated read underneath
// BufferPool.ReadSnapshot. Safe as long as no writer runs concurrently
// (BufferPool.ReadSnapshot holds missMu, which serializes all pool disk
// access).
func (d *Disk) readSnapshot(id PageID, dst *[PageSize]byte) error {
	p, ok := d.pages[id]
	if !ok {
		return fmt.Errorf("storage: snapshot read of unallocated page %d", id)
	}
	*dst = *p
	return nil
}

func (d *Disk) write(id PageID, src *[PageSize]byte) error {
	if err := d.checkFault(FaultWrite, id); err != nil {
		return err
	}
	p, ok := d.pages[id]
	if !ok {
		return fmt.Errorf("storage: write of unallocated page %d", id)
	}
	d.clock.addPhysWrite()
	*p = *src
	if d.durDirty != nil {
		d.durDirty[id] = struct{}{}
	}
	return nil
}

// NextPage returns the id the next fresh allocation would receive when the
// free list is empty — the durable checkpoint records it so a restored disk
// continues the same id sequence.
func (d *Disk) NextPage() PageID { return d.next }

// DurableDirty returns the sorted ids of pages written or allocated since the
// last checkpoint. Callers must hold the exclusive Database lock (no
// concurrent physical I/O).
func (d *Disk) DurableDirty() []PageID {
	out := make([]PageID, 0, len(d.durDirty))
	for id := range d.durDirty {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ClearDurableDirty resets the dirty set after a checkpoint committed.
func (d *Disk) ClearDurableDirty() {
	for id := range d.durDirty {
		delete(d.durDirty, id)
	}
}

// Restore replaces the disk's contents with the live pages of a recovered
// image: every id in live is copied from img, next continues the persisted
// allocation sequence, and ids below next that are not live (pages of the
// previous incarnation's derived structures) become the free list, so the
// data file's address space is reclaimed instead of growing forever. The
// restored pages are not marked durably dirty — they are already in the data
// file.
func (d *Disk) Restore(img map[PageID]*[PageSize]byte, live []PageID, next PageID) error {
	pages := make(map[PageID]*[PageSize]byte, len(live))
	for _, id := range live {
		src, ok := img[id]
		if !ok {
			return fmt.Errorf("storage: restore: live page %d missing from recovered image", id)
		}
		cp := new([PageSize]byte)
		*cp = *src
		pages[id] = cp
	}
	var free []freeExtent
	for id := PageID(1); id < next; id++ {
		if _, ok := pages[id]; !ok {
			if n := len(free); n > 0 && free[n-1].Start+free[n-1].Len == id {
				free[n-1].Len++
			} else {
				free = append(free, freeExtent{Start: id, Len: 1})
			}
		}
	}
	d.pages = pages
	d.next = next
	d.free = free
	if d.durDirty != nil {
		d.ClearDurableDirty()
	}
	return nil
}
