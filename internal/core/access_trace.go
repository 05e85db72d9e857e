package core

import (
	"slices"
	"sort"
	"sync/atomic"

	"gomdb/internal/object"
)

// Forward-trace capture for trace-driven clustering. Every (re)computation of
// a materialized result records the ordered sequence of objects the
// evaluation read (first access only); the clustering pass turns consecutive
// trace positions into co-access affinity edges and relocates the object heap
// so those objects share pages. Traces are bookkeeping, not data: recording
// charges nothing, traces die with their entry or GMR, and stale OIDs (the
// object was deleted after the trace was taken) are filtered by the consumer.

// traceKey identifies the forward trace of one result column of one entry.
type traceKey struct {
	gmr string
	key string // encoded argument combination (entry key)
	col int
}

// AccessStats aggregates the per-GMR forward-access statistics exposed
// through Manager.GMRAccessStats: how many traces were recorded, how many
// objects they touched, and how many distinct object-heap pages each
// computation had to visit under the placement current at trace time. The
// page counts are the clustering pass's before-picture — a computation whose
// trace touches fewer distinct pages after relocation is the win the pass
// exists for.
type AccessStats struct {
	Traces        int64 // forward computations whose trace was recorded
	TraceObjects  int64 // objects across recorded traces (first accesses)
	DistinctPages int64 // distinct object-heap pages across recorded traces
}

// recordTrace stores the ordered forward trace of column col of the entry
// with key k, replacing any previous trace for the same result. trace is
// EvalTrackedOrdered's first-access order, so it holds no repeats; it is
// borrowed, and copied only when it differs from the stored trace (a
// rematerialization mostly revisits what the last one did).
func (m *Manager) recordTrace(g *GMR, k string, col int, trace []object.OID) {
	tk := traceKey{g.Name, k, col}
	if len(trace) == 0 {
		delete(m.accessTraces, tk)
		return
	}
	if old, ok := m.accessTraces[tk]; !ok || !slices.Equal(old, trace) {
		m.accessTraces[tk] = slices.Clone(trace)
	}
	m.pages = m.pages[:0]
	for _, oid := range trace {
		if rid, ok := m.Objs.RIDOf(oid); ok {
			m.pages = append(m.pages, rid.Page)
		}
	}
	slices.Sort(m.pages)
	pages := len(slices.Compact(m.pages))
	st := m.accessStats[g.Name]
	if st == nil {
		st = &AccessStats{}
		m.accessStats[g.Name] = st
	}
	st.Traces++
	st.TraceObjects += int64(len(trace))
	st.DistinctPages += int64(pages)
	atomic.AddInt64(&m.Stats.ForwardTraces, 1)
	atomic.AddInt64(&m.Stats.TraceObjects, int64(len(trace)))
	atomic.AddInt64(&m.Stats.TracePages, int64(pages))
}

// clearEntryTraces drops the traces of every column of the entry with key k;
// called when the entry leaves the extension.
func (m *Manager) clearEntryTraces(g *GMR, k string) {
	for col := range g.Funcs {
		delete(m.accessTraces, traceKey{g.Name, k, col})
	}
}

// dropTraces drops all traces and access statistics of a GMR being removed.
func (m *Manager) dropTraces(name string) {
	for tk := range m.accessTraces {
		if tk.gmr == name {
			delete(m.accessTraces, tk)
		}
	}
	delete(m.accessStats, name)
}

// AccessTraces returns every recorded forward trace in canonical order —
// sorted by (GMR name, entry key, column) — so consumers iterate
// deterministically regardless of map layout. The returned slices alias the
// stored traces and must not be mutated.
func (m *Manager) AccessTraces() [][]object.OID {
	keys := make([]traceKey, 0, len(m.accessTraces))
	for tk := range m.accessTraces {
		keys = append(keys, tk)
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
	out := make([][]object.OID, len(keys))
	for i, tk := range keys {
		out[i] = m.accessTraces[tk]
	}
	return out
}

// TraceCount returns the number of recorded forward traces.
func (m *Manager) TraceCount() int { return len(m.accessTraces) }

// GMRAccessStats returns a copy of the per-GMR access statistics, keyed by
// GMR name.
func (m *Manager) GMRAccessStats() map[string]AccessStats {
	out := make(map[string]AccessStats, len(m.accessStats))
	for name, st := range m.accessStats {
		out[name] = *st
	}
	return out
}
