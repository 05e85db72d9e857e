package core

import (
	"sort"
	"sync/atomic"
	"time"

	"gomdb/internal/object"
)

// Deferred rematerialization (the third strategy next to the paper's
// immediate and lazy disciplines): invalidations only mark entries invalid
// and enqueue them on a coalescing queue, so N updates hitting the same
// result between flushes cost one recomputation. Flush drains the queue
// serially in the canonical (GMR name, entry key, column) order, recomputing
// each item with the same fully charged rematerializeWith that the immediate
// strategy and forced lookups use, so a flush charges exactly the accesses
// and CPU of those recomputations in a fixed order.

// pendingKey identifies one deferred recomputation: a single result column
// of a single GMR entry.
type pendingKey struct {
	gmr string
	key string // encoded argument combination (entry key)
	col int
}

// pendingItem is the queued work for a pendingKey. triggers is non-nil only
// under the second-chance variant: the objects whose updates invalidated the
// entry, whose retained RRR tuples the flush prunes if the recomputation no
// longer visits them.
type pendingItem struct {
	g        *GMR
	triggers map[object.OID]struct{}
}

// PendingLen returns the current depth of the deferred recomputation queue.
func (m *Manager) PendingLen() int { return len(m.pending) }

// enqueue adds (or coalesces into) the pending recomputation of column col
// of the entry with key k in g. Caller holds the exclusive Database lock.
func (m *Manager) enqueue(g *GMR, k string, col int, trigger object.OID) {
	atomic.AddInt64(&m.Stats.DeferredUpdates, 1)
	pk := pendingKey{g.Name, k, col}
	it, ok := m.pending[pk]
	if ok {
		atomic.AddInt64(&m.Stats.CoalescedUpdates, 1)
	} else {
		it = &pendingItem{g: g}
		if g.SecondChance {
			it.triggers = make(map[object.OID]struct{})
		}
		m.pending[pk] = it
		if d := int64(len(m.pending)); d > atomic.LoadInt64(&m.Stats.QueueHighWater) {
			atomic.StoreInt64(&m.Stats.QueueHighWater, d)
		}
	}
	if it.triggers != nil {
		it.triggers[trigger] = struct{}{}
	}
}

// clearPending retires the pending recomputation of one entry column; called
// from setResult so every path that revalidates a result — flush apply,
// forward force, column revalidation — keeps the queue consistent.
func (m *Manager) clearPending(gmr, k string, col int) {
	if len(m.pending) == 0 {
		return
	}
	delete(m.pending, pendingKey{gmr, k, col})
}

// clearPendingGMR drops all pending work of a GMR being dematerialized.
func (m *Manager) clearPendingGMR(gmr string) {
	for pk := range m.pending {
		if pk.gmr == gmr {
			delete(m.pending, pk)
		}
	}
}

// Flush drains the deferred recomputation queue. Caller holds the exclusive
// Database lock (the facade's Flush/Batch take it).
func (m *Manager) Flush() error {
	if len(m.pending) == 0 {
		return nil
	}
	// Canonical drain order: sorted by (GMR, entry key, column) so physical
	// placement, RRR refresh order, and trace events are independent of
	// enqueue order and map iteration.
	keys := make([]pendingKey, 0, len(m.pending))
	for pk := range m.pending {
		keys = append(keys, pk)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.gmr != b.gmr {
			return a.gmr < b.gmr
		}
		if a.key != b.key {
			return a.key < b.key
		}
		return a.col < b.col
	})
	start := time.Now()
	var evalNanos int64
	flushed := false
	for _, pk := range keys {
		it := m.pending[pk]
		e, ok := it.g.entries[pk.key]
		if !ok || e.Valid[pk.col] {
			// The entry vanished (forget_object, eviction) or was already
			// revalidated by a force; nothing to recompute.
			delete(m.pending, pk)
			continue
		}
		if !flushed {
			flushed = true
			atomic.AddInt64(&m.Stats.Flushes, 1)
		}
		// setResult inside retires the pending item.
		t0 := time.Now()
		_, err := m.rematerializeWith(it.g, e, pk.col, it.triggers)
		evalNanos += int64(time.Since(t0))
		if err != nil {
			return err
		}
		atomic.AddInt64(&m.Stats.FlushedItems, 1)
	}
	if flushed {
		atomic.AddInt64(&m.Stats.FlushEvalNanos, evalNanos)
		atomic.AddInt64(&m.Stats.FlushWallNanos, int64(time.Since(start)))
	}
	return nil
}
