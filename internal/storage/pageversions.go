package storage

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"gomdb/internal/mvcc"
)

// pageVersions is the copy-on-write page overlay of the MVCC snapshot read
// path. Writers (which run one at a time, under the exclusive Database
// lock) capture a page's pre-image the first time they mutate it in the
// current epoch; pinned readers reconstruct the page state at their version
// from the captures, falling through to the live page when no capture
// covers it. The tag rule is mvcc.Chains'.
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

// pvStripe holds the version chains of the pages that map to it. Each
// capture's buffer comes from capturePool and goes back to it when the
// capture is reclaimed.
type pvStripe struct {
	mu   sync.RWMutex
	caps mvcc.Chains[PageID, *[PageSize]byte]
}

// capturePool recycles pre-image buffers: nearly every capture is reclaimed
// at the next publish, so steady-state capturing allocates nothing.
var capturePool = sync.Pool{New: func() any { return new([PageSize]byte) }}

func recycleCapture(data *[PageSize]byte) { capturePool.Put(data) }

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

// MutatePage runs fn, which mutates f.Data in place, under the page's
// stripe write lock, capturing the pre-image first if this is the page's
// first mutation of the current epoch. The caller must hold the frame
// pinned.
func (bp *BufferPool) MutatePage(f *Frame, fn func()) {
	pv := bp.pv
	i := stripeOf(f.id)
	s := &pv.stripes[i]
	stable := pv.st.Stable()
	s.mu.Lock()
	if c := s.caps.Capture(f.id, stable); c != nil {
		*c = capturePool.Get().(*[PageSize]byte)
		**c = f.Data
		pv.setHeld(i, true)
	}
	fn()
	s.mu.Unlock()
}

// ReadVersioned copies the state of page id as of version ver into dst. It
// charges nothing, like ReadSnapshot, but unlike ReadSnapshot it is safe
// concurrently with a writer that mutates pages through MutatePage: the live
// fall-through runs under the stripe read lock, so a concurrent
// capture-and-mutate cannot tear it.
func (bp *BufferPool) ReadVersioned(id PageID, ver uint64, dst *[PageSize]byte) error {
	s := &bp.pv.stripes[stripeOf(id)]
	s.mu.RLock()
	defer s.mu.RUnlock()
	if data, ok := s.caps.At(id, ver); ok {
		*dst = *data
		return nil
	}
	return bp.ReadSnapshot(id, dst)
}

// ReclaimVersions drops the page captures no pinned reader can reach (tags
// below floor). Called from the facade's publish point, it visits only the
// stripes whose held bit is set and clears the bit of each it empties. The
// buffers go back to capturePool under the stripe lock, which ReadVersioned
// holds while it copies one.
func (bp *BufferPool) ReclaimVersions(floor uint64) {
	pv := bp.pv
	for held := pv.held.Load(); held != 0; held &= held - 1 {
		i := bits.TrailingZeros64(held)
		s := &pv.stripes[i]
		s.mu.Lock()
		s.caps.Reclaim(floor, recycleCapture)
		if s.caps.Len() == 0 {
			pv.setHeld(i, false)
		}
		s.mu.Unlock()
	}
}

// VersionCaptureCount reports the number of retained page pre-images.
func (bp *BufferPool) VersionCaptureCount() int {
	n := 0
	for i := range bp.pv.stripes {
		s := &bp.pv.stripes[i]
		s.mu.RLock()
		n += s.caps.Len()
		s.mu.RUnlock()
	}
	return n
}

// Versions returns the pool's MVCC version state: the stable version its
// page captures are tagged with, shared by every layer built on the pool.
func (bp *BufferPool) Versions() *mvcc.State { return bp.pv.st }
