package core

import (
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gomdb/internal/lang"
	"gomdb/internal/object"
	"gomdb/internal/schema"
)

// Deferred rematerialization (the third strategy next to the paper's
// immediate and lazy disciplines): invalidations only mark entries invalid
// and enqueue them on a coalescing queue, so N updates hitting the same
// result between flushes cost one recomputation. Flush drains the queue with
// a bounded worker pool in two phases:
//
//  1. Parallel evaluation. Each worker evaluates its entry on a shadow engine
//     (schema.Engine.Shadow): object reads take the charge-free snapshot path
//     and are recorded in an ordered trace; interpreter CPU is charged live
//     (atomic adds commute, and each item's CPU cost is independent of the
//     schedule). Shadow evaluation refuses mutations, so a function that is
//     not genuinely side-effect free falls back to phase-2 serial
//     recomputation.
//
//  2. Serial apply, in the canonical (GMR name, entry key, column) order.
//     Each item's read trace is replayed through the charged object-read
//     path — producing exactly the physical I/O a serial drain would — then
//     the result is stored and the RRR refreshed.
//
// Because phase 1 charges only schedule-independent CPU and phase 2 performs
// all charged I/O serially in a canonical order, the simulated cost of a
// flush is bit-identical for any worker count (the charge-equivalence
// property the determinism tests assert).

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
	args     []object.Value
	triggers map[object.OID]struct{}
}

// SetRematWorkers bounds the Flush worker pool; n <= 0 selects GOMAXPROCS.
func (m *Manager) SetRematWorkers(n int) { m.rematWorkers = n }

// PendingLen returns the current depth of the deferred recomputation queue.
func (m *Manager) PendingLen() int { return len(m.pending) }

// enqueue adds (or coalesces into) the pending recomputation of column col
// of the entry with key k in g. Caller holds the exclusive Database lock.
func (m *Manager) enqueue(g *GMR, k string, col int, args []object.Value, trigger object.OID) {
	atomic.AddInt64(&m.Stats.DeferredUpdates, 1)
	pk := pendingKey{g.Name, k, col}
	it, ok := m.pending[pk]
	if ok {
		atomic.AddInt64(&m.Stats.CoalescedUpdates, 1)
	} else {
		it = &pendingItem{g: g, args: args}
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

// flushWork is the per-item state threaded through the two flush phases.
type flushWork struct {
	pk pendingKey
	it *pendingItem
	e  *entry

	// Phase-1 outputs.
	fn       *lang.Function
	v        object.Value
	accessed map[object.OID]struct{}
	trace    []object.OID
	err      error
}

// Flush drains the deferred recomputation queue. Caller holds the exclusive
// Database lock (the facade's Flush/Batch take it).
func (m *Manager) Flush() error {
	if len(m.pending) == 0 {
		return nil
	}
	// Canonical drain order: sorted by (GMR, entry key, column) so physical
	// placement, RRR refresh order, and trace events are independent of both
	// enqueue order hash effects and the worker schedule.
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
	work := make([]*flushWork, 0, len(keys))
	for _, pk := range keys {
		it := m.pending[pk]
		g := it.g
		e, ok := g.entries[pk.key]
		if !ok || e.Valid[pk.col] {
			// The entry vanished (forget_object, eviction) or was already
			// revalidated by a force; nothing to recompute.
			delete(m.pending, pk)
			continue
		}
		work = append(work, &flushWork{pk: pk, it: it, e: e})
	}
	if len(work) == 0 {
		return nil
	}
	atomic.AddInt64(&m.Stats.Flushes, 1)

	// Phase 1: parallel shadow evaluation.
	workers := m.rematWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(work) {
		workers = len(work)
	}
	start := time.Now()
	var evalNanos atomic.Int64
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(work) {
					return
				}
				t0 := time.Now()
				m.shadowEval(work[i])
				evalNanos.Add(int64(time.Since(t0)))
			}
		}()
	}
	wg.Wait()
	atomic.AddInt64(&m.Stats.FlushEvalNanos, evalNanos.Load())
	atomic.AddInt64(&m.Stats.FlushWallNanos, int64(time.Since(start)))

	// Phase 2: serial apply in canonical order.
	for _, wk := range work {
		g := wk.it.g
		if wk.err != nil {
			// Shadow evaluation refused (mutation attempt) or failed:
			// recompute serially with full charging; setResult inside
			// retires the pending item.
			if _, err := m.rematerializeWith(g, wk.e, wk.pk.col, wk.it.triggers); err != nil {
				return err
			}
			atomic.AddInt64(&m.Stats.FlushedItems, 1)
			continue
		}
		// Replay the shadow read trace through the charged path: the buffer
		// pool sees the same access sequence a serial evaluation would have
		// produced, so physical I/O is identical to a 1-worker drain.
		for _, oid := range wk.trace {
			if _, err := m.Objs.TypeOf(oid); err != nil {
				return err
			}
		}
		v, err := m.storeComplexResult(wk.fn, wk.v)
		if err != nil {
			return err
		}
		if err := g.setResult(wk.e, wk.pk.col, v); err != nil {
			return err
		}
		atomic.AddInt64(&m.Stats.Rematerializations, 1)
		m.emit("rematerialize", g.Name, wk.fn.Name, object.NilOID)
		for _, oid := range sortedOIDs(wk.accessed) {
			if err := m.addRRR(oid, wk.fn.Name, wk.e.Args); err != nil {
				return err
			}
		}
		for _, trig := range sortedOIDs(wk.it.triggers) {
			if _, ok := wk.accessed[trig]; !ok {
				if err := m.removeRRR(trig, wk.fn.Name, wk.e.Args); err != nil {
					return err
				}
			}
		}
		// The shadow trace is the ordered forward trace (with repeats, which
		// recordTrace collapses) — record it like the serial paths do.
		m.recordTrace(g, wk.pk.key, wk.pk.col, wk.trace)
		atomic.AddInt64(&m.Stats.FlushedItems, 1)
	}
	return nil
}

// shadowEval runs one item's recomputation on a private shadow engine,
// filling the phase-1 outputs. Any error (including ErrShadowMutation from a
// not-actually-side-effect-free body) routes the item to the serial fallback.
func (m *Manager) shadowEval(wk *flushWork) {
	sh := m.En.Shadow()
	fn := m.dispatchShadow(sh, wk.it.g.Funcs[wk.pk.col], wk.e.Args)
	wk.fn = fn
	v, accessed, err := sh.EvalTracked(fn, wk.e.Args)
	if err != nil {
		wk.err = err
		return
	}
	wk.v = v
	wk.accessed = accessed
	wk.trace = sh.ShadowTrace()
}

// dispatchShadow mirrors Manager.dispatch on the shadow read path: the
// dynamic-dispatch receiver read is taken from a snapshot and recorded in
// the trace, so the replay charges it exactly as dispatch would have.
func (m *Manager) dispatchShadow(sh *schema.Engine, fn *lang.Function, args []object.Value) *lang.Function {
	dot := strings.IndexByte(fn.Name, '.')
	if dot < 0 || len(args) == 0 || args[0].Kind != object.KRef {
		return fn
	}
	o, err := m.Objs.GetSnapshot(args[0].R)
	if err != nil {
		return fn
	}
	sh.TraceObject(args[0].R)
	if variant, ok := m.Sch.ResolveOp(o.Type, fn.Name[dot+1:]); ok {
		return variant
	}
	return fn
}
