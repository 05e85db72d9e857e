package core

import (
	"errors"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"gomdb/internal/object"
)

// Deferred rematerialization (the third strategy next to the paper's
// immediate and lazy disciplines): deferred(o) is lazy(o), and a Deferred
// GMR's invalid set is its queue of pending recomputations, so N updates
// hitting the same result between flushes cost one recomputation. Flush
// drains the invalid results of every Deferred GMR serially in the canonical
// (GMR name, entry key, column) order, recomputing each with the same fully
// charged rematerializeWith that the immediate strategy and forced lookups
// use, so a flush charges exactly the accesses and CPU of those
// recomputations in a fixed order. A result left invalid by an aborted
// invalidation is pending like any other and drains at the next flush.

// PendingLen returns the number of pending deferred recomputations: the
// invalid result columns of Deferred GMRs.
func (m *Manager) PendingLen() int {
	n := 0
	for _, g := range m.gmrs {
		if g.Strategy != Deferred {
			continue
		}
		for _, inv := range g.invalid {
			n += len(inv)
		}
	}
	return n
}

// addTrigger remembers, under the deferred second-chance variant, that an
// update of oid invalidated column i: its RRR tuple stayed, and the
// recomputation prunes it if it no longer visits oid.
func (e *entry) addTrigger(i int, oid object.OID) {
	if e.triggers == nil {
		e.triggers = make([]map[object.OID]struct{}, len(e.Results))
	}
	if e.triggers[i] == nil {
		e.triggers[i] = make(map[object.OID]struct{})
	}
	e.triggers[i][oid] = struct{}{}
}

// triggersOf returns the second-chance triggers of column i, ascending.
func (e *entry) triggersOf(i int) []object.OID {
	if e.triggers == nil {
		return nil
	}
	out := make([]object.OID, 0, len(e.triggers[i]))
	for oid := range e.triggers[i] {
		out = append(out, oid)
	}
	slices.Sort(out)
	return out
}

// Flush recomputes every invalid result of every Deferred GMR. Caller holds
// the exclusive Database lock (the facade's Flush/Batch take it).
func (m *Manager) Flush() error {
	if m.PendingLen() == 0 {
		return nil
	}
	start := time.Now()
	var evalNanos int64
	flushed := false
	for _, name := range m.GMRs() {
		g := m.gmrs[name]
		if g.Strategy != Deferred {
			continue
		}
		// Canonical drain order: sorted by (entry key, column) within the
		// GMR, so physical placement, RRR refresh order, and trace events are
		// independent of invalidation order and map iteration.
		type cell struct {
			key string
			col int
		}
		var cells []cell
		for col, inv := range g.invalid {
			for k := range inv {
				cells = append(cells, cell{k, col})
			}
		}
		sort.Slice(cells, func(a, b int) bool {
			if cells[a].key != cells[b].key {
				return cells[a].key < cells[b].key
			}
			return cells[a].col < cells[b].col
		})
		for _, c := range cells {
			e, ok := g.entries[c.key]
			if !ok || e.Valid[c.col] {
				// A recomputation earlier in the drain forced this result or
				// evicted its entry.
				continue
			}
			if !flushed {
				flushed = true
				atomic.AddInt64(&m.Stats.Flushes, 1)
			}
			t0 := time.Now()
			err := m.rematerializeWith(g, e, c.col, e.triggersOf(c.col))
			evalNanos += int64(time.Since(t0))
			if errors.Is(err, object.ErrDangling) {
				// The result read an object deleted since (ForgetObject
				// left it invalid): the function is undefined until the
				// reference is repaired, so the result stays invalid and a
				// forward query reports the error, as under Lazy.
				continue
			}
			if err != nil {
				return err
			}
			atomic.AddInt64(&m.Stats.FlushedItems, 1)
		}
	}
	if flushed {
		atomic.AddInt64(&m.Stats.FlushEvalNanos, evalNanos)
		atomic.AddInt64(&m.Stats.FlushWallNanos, int64(time.Since(start)))
	}
	return nil
}
