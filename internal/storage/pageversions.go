package storage

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"gomdb/internal/mvcc"
)

// pageVersions is the copy-on-write page overlay of the MVCC snapshot read
// path. Writers (which run one at a time, under the exclusive Database
// lock) capture a page's pre-image the first time they mutate it in the
// current epoch, tagged with the current stable version; pinned readers
// reconstruct the page state at their version from the captures, falling
// through to the live page when no capture covers it.
//
// The overlay is striped by page id. A stripe's RWMutex serializes the
// writer's capture-and-mutate regions (MutatePage) against readers copying
// the live bytes (ReadVersioned): without it a reader could see a torn,
// half-compacted slotted page. Lock order: stripe mutex before any pool
// shard mutex or missMu (MutatePage runs after Pin has released the shard
// mutex; ReadVersioned acquires pool locks while holding the stripe lock).
type pageVersions struct {
	st *mvcc.State
	// stripes are indexed by stripeOf; there are 64, one per bit of held.
	stripes [64]pvStripe
	// held has bit i set while stripe i holds captures, so dropBelow visits
	// only those stripes. A stripe's bit is set and cleared under its lock;
	// the word is shared, hence the CAS loops (go 1.22 has no atomic Or/And).
	held atomic.Uint64
}

type pvStripe struct {
	mu sync.RWMutex
	m  map[PageID][]pageCapture
	// spare holds emptied capture slices for reuse, so a page's first
	// capture of an epoch does not allocate a new slice.
	spare [][]pageCapture
}

// pageCapture is one pre-image: the page bytes as of publish ver. Captures
// for a page are kept sorted by ascending ver. data comes from capturePool
// and goes back to it when dropBelow reclaims the capture.
type pageCapture struct {
	ver  uint64
	data *[PageSize]byte
}

// capturePool recycles pre-image buffers: nearly every capture is reclaimed
// at the next publish, so steady-state capturing allocates nothing.
var capturePool = sync.Pool{New: func() any { return new([PageSize]byte) }}

func newPageVersions(st *mvcc.State) *pageVersions {
	pv := &pageVersions{st: st}
	for i := range pv.stripes {
		pv.stripes[i].m = make(map[PageID][]pageCapture)
	}
	return pv
}

func stripeOf(id PageID) int { return int(uint64(id) % 64) }

// setHeld sets (on) or clears the held bit of stripe i. Caller holds the
// stripe's lock.
func (pv *pageVersions) setHeld(i int, on bool) {
	bit := uint64(1) << i
	for {
		old := pv.held.Load()
		next := old &^ bit
		if on {
			next = old | bit
		}
		if next == old || pv.held.CompareAndSwap(old, next) {
			return
		}
	}
}

// mutate runs fn (the caller's in-place mutation of f.Data) under the
// page's stripe write lock, capturing the pre-image first if this is the
// page's first mutation of the current epoch.
func (pv *pageVersions) mutate(f *Frame, fn func()) {
	i := stripeOf(f.id)
	s := &pv.stripes[i]
	stable := pv.st.Stable()
	s.mu.Lock()
	caps, ok := s.m[f.id]
	if !ok && len(s.spare) > 0 {
		caps = s.spare[len(s.spare)-1]
		s.spare = s.spare[:len(s.spare)-1]
	}
	if n := len(caps); n == 0 || caps[n-1].ver < stable {
		data := capturePool.Get().(*[PageSize]byte)
		*data = f.Data
		s.m[f.id] = append(caps, pageCapture{ver: stable, data: data})
		pv.setHeld(i, true)
	}
	fn()
	s.mu.Unlock()
}

// readAt copies the state of page id as of version ver into dst: the
// capture with the smallest tag >= ver when one exists, the live page
// otherwise (nothing has mutated it since ver). The live fall-through runs
// under the stripe read lock so a concurrent capture-and-mutate cannot
// tear it.
func (pv *pageVersions) readAt(bp *BufferPool, id PageID, ver uint64, dst *[PageSize]byte) error {
	s := &pv.stripes[stripeOf(id)]
	s.mu.RLock()
	defer s.mu.RUnlock()
	caps := s.m[id]
	i := sort.Search(len(caps), func(i int) bool { return caps[i].ver >= ver })
	if i < len(caps) {
		*dst = *caps[i].data
		return nil
	}
	return bp.ReadSnapshot(id, dst)
}

// dropBelow reclaims every capture tagged below floor — no pinned reader
// can reach them. Called from the facade's publish point, it visits only the
// stripes whose held bit is set and clears the bit of each it empties. The
// buffers go back to capturePool under the stripe lock, which readAt holds
// while it copies one; an emptied capture slice is kept on the stripe's
// spare list for the next page captured there.
func (pv *pageVersions) dropBelow(floor uint64) {
	for held := pv.held.Load(); held != 0; held &= held - 1 {
		i := bits.TrailingZeros64(held)
		s := &pv.stripes[i]
		s.mu.Lock()
		for id, caps := range s.m {
			j := 0
			for j < len(caps) && caps[j].ver < floor {
				capturePool.Put(caps[j].data)
				j++
			}
			if j == 0 {
				continue
			}
			n := copy(caps, caps[j:])
			clear(caps[n:])
			if n == 0 {
				delete(s.m, id)
				s.spare = append(s.spare, caps[:0])
			} else {
				s.m[id] = caps[:n]
			}
		}
		if len(s.m) == 0 {
			pv.setHeld(i, false)
		}
		s.mu.Unlock()
	}
}

// captureCount returns the total number of live page captures (audits).
func (pv *pageVersions) captureCount() int {
	n := 0
	for i := range pv.stripes {
		s := &pv.stripes[i]
		s.mu.RLock()
		for _, caps := range s.m {
			n += len(caps)
		}
		s.mu.RUnlock()
	}
	return n
}

// SetMVCC attaches the shared version state to the pool, enabling the
// copy-on-write page overlay. Must be called before any concurrent use.
func (bp *BufferPool) SetMVCC(st *mvcc.State) {
	if st == nil {
		bp.pv = nil
		return
	}
	bp.pv = newPageVersions(st)
}

// MutatePage runs fn, which mutates f.Data in place, under the MVCC page
// overlay's capture-and-mutate protocol. Without MVCC state attached it
// simply runs fn. The caller must hold the frame pinned.
func (bp *BufferPool) MutatePage(f *Frame, fn func()) {
	if bp.pv == nil {
		fn()
		return
	}
	bp.pv.mutate(f, fn)
}

// ReadVersioned copies the state of page id as of version ver into dst.
// It charges nothing, like ReadSnapshot, but unlike ReadSnapshot it is safe
// concurrently with a writer that mutates pages through MutatePage.
func (bp *BufferPool) ReadVersioned(id PageID, ver uint64, dst *[PageSize]byte) error {
	if bp.pv == nil {
		return bp.ReadSnapshot(id, dst)
	}
	return bp.pv.readAt(bp, id, ver, dst)
}

// ReclaimVersions drops page captures no pinned reader can reach (tags
// below floor).
func (bp *BufferPool) ReclaimVersions(floor uint64) {
	if bp.pv != nil {
		bp.pv.dropBelow(floor)
	}
}

// VersionCaptureCount reports the number of retained page pre-images.
func (bp *BufferPool) VersionCaptureCount() int {
	if bp.pv == nil {
		return 0
	}
	return bp.pv.captureCount()
}
