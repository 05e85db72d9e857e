package storage

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"gomdb/internal/mvcc"
)

// PinDebug, when enabled, makes Frame.MarkDirty assert that the frame is
// pinned. Dirtying an unpinned frame is always a caller bug — the frame may
// be evicted (and the write lost) at any moment — but the check costs an
// atomic load on a hot path, so it is off by default and switched on by
// tests.
var PinDebug atomic.Bool

// Frame is a buffer-pool frame holding a cached page.
//
// A *Frame is valid only while the caller holds it pinned. Eviction recycles
// frames: the next miss or PinNew reuses an evicted frame's memory for a
// different page, so after Unpin neither the pointer nor anything read
// through it (ID, Data) may be used. Take the page id before unpinning.
type Frame struct {
	id    PageID
	Data  [PageSize]byte
	dirty bool
	// durDirty tracks divergence from the last durable checkpoint rather
	// than from the simulated disk: set together with dirty, cleared only by
	// BufferPool.ClearDurableDirty (after a checkpoint commits), never by
	// simulated write-back. Durable checkpoints capture exactly the frames
	// with durDirty set, so a page whose content is unchanged since the last
	// checkpoint is not rewritten. Unused (set but never read) without
	// durability.
	durDirty bool
	// pins is the pin count. Atomic because concurrent readers pin and
	// unpin under different shard lock acquisitions and MarkDirty's debug
	// assertion reads it without any lock.
	pins atomic.Int32
	// stamp is the global recency stamp of the last Pin. Written under the
	// owning shard's mutex; atomic because the victim scan reads it under
	// missMu alone.
	stamp atomic.Uint64
	// slot is the frame's index in BufferPool.frames; guarded by missMu.
	slot int
}

// ID returns the page id cached in the frame.
func (f *Frame) ID() PageID { return f.id }

// MarkDirty records that the frame's contents diverge from disk and must be
// written back on eviction or flush. Callers that mutate Data (and therefore
// call MarkDirty) must hold the frame pinned and run under the Database
// write lock; concurrent readers only ever read pinned frames.
func (f *Frame) MarkDirty() {
	if PinDebug.Load() && f.pins.Load() <= 0 {
		panic(fmt.Sprintf("storage: MarkDirty on unpinned page %d", f.id))
	}
	f.dirty = true
	f.durDirty = true
}

// shard is one lock stripe of the pool: a mutex and the frames whose page
// ids hash to it.
type shard struct {
	mu     sync.Mutex
	frames map[PageID]*Frame
	_      [40]byte // pad to a cache line so neighboring stripes don't false-share
}

// BufferPool caches disk pages in a fixed number of frames with LRU
// replacement. The paper deliberately ran with a small 600 KB buffer
// (150 frames of 4 KB) to make I/O behaviour visible at benchmark scale;
// NewPool(disk, 150) reproduces that configuration.
//
// # Lock striping
//
// The resident-page table is striped: page ids map to one of a power-of-two
// number of shards (default: the next power of two >= GOMAXPROCS), each with
// its own mutex and frame map, so concurrent read-path hits on different
// pages proceed in parallel. The miss path — eviction, disk I/O, and frame
// installation — serializes on a single missMu, which also guards the
// underlying Disk; misses are the slow path by construction (each one
// charges a 25 ms simulated I/O), so their serialization does not limit
// read scalability.
//
// # Exact global LRU
//
// Replacement is deliberately NOT per-shard. Every Pin stamps its frame from
// a global atomic counter, and eviction selects the minimum-stamp unpinned
// frame across all shards — exactly the frame the previous single-mutex
// implementation's global LRU list would have chosen. Partitioning capacity
// across shards would make eviction (and therefore the physical-I/O count
// and the simulated clock) depend on the shard count and thus on GOMAXPROCS;
// with the global stamp the victim sequence of a single-threaded run is
// bit-identical to the historical pool for any shard count.
//
// The victim scan is O(capacity) real time on every miss of a full pool —
// not negligible: in the paper's 150-frame regime, where most operations
// miss, a scan that ranged over every shard map under its mutex took about a
// tenth of the CPU. It therefore walks a flat frame table that only missMu
// holders change, reading each frame's pin count and stamp atomically and
// locking a shard only to evict the chosen victim.
type BufferPool struct {
	disk  *Disk
	cap   int
	clock *Clock

	shards []shard
	mask   uint32

	// missMu serializes the miss path (capacity check, eviction, disk I/O,
	// installation) and all other disk access. Lock order: missMu before
	// any shard mutex; the hit path takes only its shard mutex.
	missMu sync.Mutex

	// frames is the frame table: every resident frame, in no particular
	// order (see install and remove). Guarded by missMu.
	frames []*Frame
	// tick is the global recency stamp source.
	tick atomic.Uint64

	// hits and misses count logical page requests served from the pool vs.
	// requiring a physical read; read them through HitStats.
	hits   atomic.Int64
	misses atomic.Int64

	// pv is the MVCC copy-on-write page overlay (see pageversions.go); it
	// owns the version state every layer built on the pool shares.
	pv *pageVersions
}

// NewPool returns a buffer pool over disk with capacity frames and the
// default shard count (the next power of two >= GOMAXPROCS).
func NewPool(disk *Disk, capacity int) *BufferPool {
	return NewPoolShards(disk, capacity, 0)
}

// NewPoolShards returns a buffer pool with an explicit lock-stripe count
// (rounded up to a power of two; 0 selects the default). shards = 1
// reproduces the historical single-mutex pool and serves as the contended
// baseline in the throughput benchmarks.
func NewPoolShards(disk *Disk, capacity, shards int) *BufferPool {
	if capacity < 1 {
		capacity = 1
	}
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	n := 1
	for n < shards && n < 256 {
		n <<= 1
	}
	bp := &BufferPool{
		disk:   disk,
		cap:    capacity,
		clock:  disk.clock,
		shards: make([]shard, n),
		mask:   uint32(n - 1),
		pv:     &pageVersions{st: mvcc.NewState()},
	}
	for i := range bp.shards {
		bp.shards[i].frames = make(map[PageID]*Frame)
	}
	return bp
}

// Capacity returns the number of frames in the pool.
func (bp *BufferPool) Capacity() int { return bp.cap }

// NumShards returns the number of lock stripes.
func (bp *BufferPool) NumShards() int { return len(bp.shards) }

// HitStats returns the number of logical page requests served from the pool
// and the number that required a physical read. The counters are atomic, so
// this is safe to call while other goroutines use the pool; an in-flight
// request may or may not be included.
func (bp *BufferPool) HitStats() (hits, misses int64) {
	return bp.hits.Load(), bp.misses.Load()
}

// shardFor returns the lock stripe owning page id.
func (bp *BufferPool) shardFor(id PageID) *shard {
	return &bp.shards[uint32(id)&bp.mask]
}

// Pin fetches page id into the pool (reading from disk on a miss), pins it,
// and returns its frame. Every Pin must be matched by an Unpin, and the
// returned frame is valid only until that Unpin (see Frame). Hits touch only
// the page's shard; misses fall into the serialized miss path.
func (bp *BufferPool) Pin(id PageID) (*Frame, error) {
	bp.clock.addLogRead()
	sh := bp.shardFor(id)
	sh.mu.Lock()
	if f, ok := sh.frames[id]; ok {
		bp.hits.Add(1)
		f.pins.Add(1)
		f.stamp.Store(bp.tick.Add(1))
		sh.mu.Unlock()
		return f, nil
	}
	sh.mu.Unlock()
	return bp.pinMiss(id)
}

// touch charges n logical reads of page id exactly as n back-to-back
// Pin/Unpin(clean) pairs would: n LogReads; on a resident page n hits and a
// recency stamp n ticks on, all under one stripe lock; on a miss the
// ordinary Pin path for the first read and n-1 hits after it. live(data)
// inspects the page — under the stripe lock on a hit, pinned on a miss — and
// returns how many of the n reads find what they read; when it returns
// k < n, the reads stop after the failing (k+1)-th, as a caller's loop of
// Pin/Unpin pairs that gives up at the first failure would. touch returns k.
func (bp *BufferPool) touch(id PageID, n int, live func(data *[PageSize]byte) int) (int, error) {
	if n <= 0 {
		return 0, nil
	}
	sh := bp.shardFor(id)
	sh.mu.Lock()
	if f, ok := sh.frames[id]; ok {
		k := live(&f.Data)
		reads := int64(min(k+1, n))
		bp.clock.addLogReads(reads)
		bp.hits.Add(reads)
		f.stamp.Store(bp.tick.Add(uint64(reads)))
		sh.mu.Unlock()
		return k, nil
	}
	sh.mu.Unlock()
	f, err := bp.Pin(id)
	if err != nil {
		return 0, err
	}
	k := live(&f.Data)
	if more := int64(min(k+1, n)) - 1; more > 0 {
		sh.mu.Lock()
		bp.clock.addLogReads(more)
		bp.hits.Add(more)
		f.stamp.Store(bp.tick.Add(uint64(more)))
		sh.mu.Unlock()
	}
	return k, bp.Unpin(id, false)
}

// pinMiss faults page id in under missMu. Because only missMu holders insert
// or evict frames, the second lookup is authoritative: a concurrent miss on
// the same page that won the race has already installed the frame.
func (bp *BufferPool) pinMiss(id PageID) (*Frame, error) {
	bp.missMu.Lock()
	defer bp.missMu.Unlock()
	sh := bp.shardFor(id)
	sh.mu.Lock()
	if f, ok := sh.frames[id]; ok {
		bp.hits.Add(1)
		f.pins.Add(1)
		f.stamp.Store(bp.tick.Add(1))
		sh.mu.Unlock()
		return f, nil
	}
	sh.mu.Unlock()
	bp.misses.Add(1)
	f, err := bp.evictIfFull()
	if err != nil {
		return nil, err
	}
	f.reset(id)
	if err := bp.disk.read(id, &f.Data); err != nil {
		return nil, err
	}
	bp.install(sh, f)
	return f, nil
}

// PinNew allocates a fresh disk page, installs a zeroed dirty frame for it
// without a physical read, and returns the pinned frame.
func (bp *BufferPool) PinNew() (*Frame, error) { return bp.PinNewOwned("") }

// PinNewOwned is PinNew with the page tagged as owned by the named heap
// file, so fault plans (storage/fault.go) can target I/O on a single file.
func (bp *BufferPool) PinNewOwned(owner string) (*Frame, error) {
	bp.missMu.Lock()
	defer bp.missMu.Unlock()
	f, err := bp.evictIfFull()
	if err != nil {
		return nil, err
	}
	id := bp.disk.Allocate()
	bp.disk.tagOwner(id, owner)
	f.reset(id)
	f.Data = [PageSize]byte{}
	f.dirty, f.durDirty = true, true
	bp.install(bp.shardFor(id), f)
	bp.clock.addLogWrite()
	return f, nil
}

// install stamps f, makes it resident in sh and adds it to the frame table.
// Caller holds missMu.
func (bp *BufferPool) install(sh *shard, f *Frame) {
	sh.mu.Lock()
	f.stamp.Store(bp.tick.Add(1))
	sh.frames[f.id] = f
	sh.mu.Unlock()
	f.slot = len(bp.frames)
	bp.frames = append(bp.frames, f)
}

// remove drops f from the frame table, moving the last frame into its slot.
// Caller holds missMu and has already removed f from its shard.
func (bp *BufferPool) remove(f *Frame) {
	last := bp.frames[len(bp.frames)-1]
	bp.frames[f.slot], last.slot = last, f.slot
	bp.frames[len(bp.frames)-1] = nil
	bp.frames = bp.frames[:len(bp.frames)-1]
}

// Unpin releases one pin on page id. If dirty is true the frame is marked
// for write-back. Unpinning a page that is not buffered, or whose pin count
// is already zero, reports an error (it indicates a caller bug, but must not
// take the process down in a server setting).
func (bp *BufferPool) Unpin(id PageID, dirty bool) error {
	sh := bp.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	f, ok := sh.frames[id]
	if !ok {
		return fmt.Errorf("storage: unpin of unbuffered page %d", id)
	}
	if f.pins.Load() <= 0 {
		return fmt.Errorf("storage: unpin of unpinned page %d", id)
	}
	f.pins.Add(-1)
	if dirty {
		f.dirty = true
		f.durDirty = true
		bp.clock.addLogWrite()
	}
	return nil
}

// reset readies a frame — fresh, or recycled by evictIfFull — to hold page
// id, clean and pinned once. The caller fills Data.
func (f *Frame) reset(id PageID) {
	f.id = id
	f.dirty, f.durDirty = false, false
	f.pins.Store(1)
}

// evictIfFull returns a frame for the caller to install a page in: when the
// pool is full, the frame it evicts using exact global LRU (minimum recency
// stamp over all unpinned frames; stamps are unique, so the scan order of
// the frame table does not matter), written back first if dirty; otherwise a
// new one. A recycled frame still holds its old page's bytes. Caller holds
// missMu, so no frame is concurrently inserted or removed; concurrent hits
// may pin or re-stamp frames, which the second, locked check below accounts
// for.
func (bp *BufferPool) evictIfFull() (*Frame, error) {
	for len(bp.frames) >= bp.cap {
		var victim *Frame
		var vstamp uint64
		for _, f := range bp.frames {
			if f.pins.Load() > 0 {
				continue
			}
			if st := f.stamp.Load(); victim == nil || st < vstamp {
				victim, vstamp = f, st
			}
		}
		if victim == nil {
			return nil, fmt.Errorf("storage: buffer pool exhausted: all %d frames pinned", bp.cap)
		}
		vsh := bp.shardFor(victim.id)
		vsh.mu.Lock()
		if victim.pins.Load() > 0 {
			// A reader pinned the chosen victim between the scan and the
			// lock; rescan for the next-oldest frame.
			vsh.mu.Unlock()
			continue
		}
		if victim.dirty {
			if err := bp.disk.write(victim.id, &victim.Data); err != nil {
				vsh.mu.Unlock()
				return nil, err
			}
		}
		delete(vsh.frames, victim.id)
		vsh.mu.Unlock()
		bp.remove(victim)
		return victim, nil
	}
	return new(Frame), nil
}

// FreePage drops page id from the pool (without write-back — the content is
// being discarded, not persisted) and returns it to the disk's free list.
// The page must be unpinned; callers run under the exclusive Database lock
// (heap relocation holds the MVCC barrier), so no reader can race the drop.
// Nothing is charged: deallocation is bookkeeping, not I/O.
func (bp *BufferPool) FreePage(id PageID) error {
	bp.missMu.Lock()
	defer bp.missMu.Unlock()
	sh := bp.shardFor(id)
	sh.mu.Lock()
	if f, ok := sh.frames[id]; ok {
		if f.pins.Load() > 0 {
			sh.mu.Unlock()
			return fmt.Errorf("storage: free of pinned page %d", id)
		}
		delete(sh.frames, id)
		bp.remove(f)
	}
	sh.mu.Unlock()
	return bp.disk.Free(id)
}

// FlushPage forces page id to disk now and marks its frame clean — the
// FORCE write policy applied to auxiliary structures (GMR extensions,
// backward indexes, RRR) whose consistency a 1991-era system guaranteed by
// writing through. A miss is a no-op.
func (bp *BufferPool) FlushPage(id PageID) error {
	bp.missMu.Lock()
	defer bp.missMu.Unlock()
	sh := bp.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	f, ok := sh.frames[id]
	if !ok || !f.dirty {
		return nil
	}
	if err := bp.disk.write(id, &f.Data); err != nil {
		return err
	}
	f.dirty = false
	return nil
}

// Flush writes all dirty frames back to disk without evicting them.
func (bp *BufferPool) Flush() error {
	bp.missMu.Lock()
	defer bp.missMu.Unlock()
	for i := range bp.shards {
		sh := &bp.shards[i]
		sh.mu.Lock()
		for _, f := range sh.frames {
			if f.dirty {
				if err := bp.disk.write(f.id, &f.Data); err != nil {
					sh.mu.Unlock()
					return err
				}
				f.dirty = false
			}
		}
		sh.mu.Unlock()
	}
	return nil
}

// ReadSnapshot copies the current contents of page id into dst — the
// buffered frame when the page is resident, the disk image otherwise —
// without pinning, without touching replacement state, and without charging
// the simulated clock or the hit/miss counters. It underlies the MVCC read
// path (ReadVersioned) and the charge-free audits (HeapFile.ReadSnapshot).
// Callers must guarantee that no writer mutates the page bytes concurrently:
// the audits run at quiescent points, and the MVCC read path wraps this call
// in the page's stripe lock (ReadVersioned), which excludes MutatePage
// writers. The disk fall-through serializes on missMu because the Disk
// itself has no interior lock.
func (bp *BufferPool) ReadSnapshot(id PageID, dst *[PageSize]byte) error {
	sh := bp.shardFor(id)
	sh.mu.Lock()
	if f, ok := sh.frames[id]; ok {
		*dst = f.Data
		sh.mu.Unlock()
		return nil
	}
	sh.mu.Unlock()
	bp.missMu.Lock()
	defer bp.missMu.Unlock()
	return bp.disk.readSnapshot(id, dst)
}

// DirtyPageIDs returns the sorted ids of all frames whose contents changed
// since the last durable checkpoint (the durDirty flag). The durable
// checkpoint unions them with Disk.DurableDirty to find every page it must
// capture; the frames' simulated dirty flags are left untouched so the
// simulated write-back accounting (eviction and Flush charges) is unchanged
// by durability.
func (bp *BufferPool) DirtyPageIDs() []PageID {
	var out []PageID
	for i := range bp.shards {
		sh := &bp.shards[i]
		sh.mu.Lock()
		for _, f := range sh.frames {
			if f.durDirty {
				out = append(out, f.id)
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ClearDurableDirty resets every frame's durDirty flag; called after a
// durable checkpoint commits. The simulated dirty flags are untouched.
func (bp *BufferPool) ClearDurableDirty() {
	for i := range bp.shards {
		sh := &bp.shards[i]
		sh.mu.Lock()
		for _, f := range sh.frames {
			f.durDirty = false
		}
		sh.mu.Unlock()
	}
}

// Resident reports whether page id is currently buffered. Used by tests.
func (bp *BufferPool) Resident(id PageID) bool {
	sh := bp.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, ok := sh.frames[id]
	return ok
}

// RecencyOrder returns the resident pages least recently pinned first: the
// order in which eviction takes them while none is pinned. Tests compare it
// to show that two access paths leave the same replacement state.
func (bp *BufferPool) RecencyOrder() []PageID {
	bp.missMu.Lock()
	defer bp.missMu.Unlock()
	fs := append([]*Frame(nil), bp.frames...)
	sort.Slice(fs, func(i, j int) bool { return fs[i].stamp.Load() < fs[j].stamp.Load() })
	out := make([]PageID, len(fs))
	for i, f := range fs {
		out[i] = f.id
	}
	return out
}

// PinnedCount returns the number of frames with a nonzero pin count.
func (bp *BufferPool) PinnedCount() int {
	n := 0
	for i := range bp.shards {
		sh := &bp.shards[i]
		sh.mu.Lock()
		for _, f := range sh.frames {
			if f.pins.Load() > 0 {
				n++
			}
		}
		sh.mu.Unlock()
	}
	return n
}
