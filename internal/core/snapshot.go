package core

import (
	"fmt"
	"sort"

	"gomdb/internal/lang"
	"gomdb/internal/object"
	"gomdb/internal/schema"
	"gomdb/internal/storage"
)

// MVCC snapshot reads over GMR state.
//
// A writer holding the exclusive Database lock mutates GMR entries through
// insertEntry / markInvalid / setResult / removeEntry. Each of those runs
// under the manager's snapMu and, before mutating, captures the entry's
// pre-image in the GMR's version chains (GMR.vers, an mvcc.Chains keyed by
// argument key, which applies the tag rule). A reader pinned at version V
// reconstructs an entry as the chains' capture for V, falling through to the
// live entry when there is none. Captures no pinned reader can reach are
// dropped at each publish.
//
// The Snapshot type bundles the reconstruction with a schema.Engine clone
// whose object reads resolve through the versioned object/page overlays and
// whose simulated charges land on a private throwaway clock — a pinned
// reader never perturbs the engine's cost counters, its trace, its
// statistics, or its cache-eviction state. Snapshot retrievals therefore
// deliberately skip the bookkeeping the live paths perform (touch charges,
// Stats counters, trace events, entry reference bits): they
// return the same *values* the live path would have returned at version V,
// not the same side effects.

// entryState is one GMR entry's state at some version: a capture, or a copy
// of the live entry. exists == false records that the entry was absent (the
// pre-image of an insert). args may alias live state (argument vectors are
// never mutated in place); cols is never modified once built.
type entryState struct {
	exists bool
	args   []object.Value
	cols   []colState
}

// colState is one result column of an entry: the result, whether it is
// valid, and its backward-index tie-break key (entry.aux).
type colState struct {
	result object.Value
	valid  bool
	aux    uint64
}

// stateOf copies the state of live entry e, its columns into cols when cols
// has room for them.
func stateOf(e *entry, cols []colState) entryState {
	n := len(e.Results)
	if cap(cols) < n {
		cols = make([]colState, n)
	}
	cols = cols[:n]
	for i := range cols {
		cols[i] = colState{result: e.Results[i], valid: e.Valid[i], aux: e.aux[i]}
	}
	return entryState{exists: true, args: e.Args, cols: cols}
}

// row returns the state as a Row that shares nothing mutable with it.
func (st entryState) row() Row {
	r := Row{Args: st.args, Results: make([]object.Value, len(st.cols)), Valid: make([]bool, len(st.cols))}
	for i, c := range st.cols {
		r.Results[i], r.Valid[i] = c.result, c.valid
	}
	return r
}

// capture records the pre-image of entry k (e == nil: absent) unless the
// current epoch already has one, in the columns of a reclaimed pre-image
// when there is one. Caller holds snapMu.
func (g *GMR) capture(k string, e *entry) {
	if c := g.vers.Capture(k, g.mgr.snapSt.Stable()); c != nil && e != nil {
		var cols []colState
		if n := len(g.spare); n > 0 {
			cols, g.spare = g.spare[n-1], g.spare[:n-1]
		}
		*c = stateOf(e, cols)
	}
}

// maxSpareCols bounds the reclaimed column slices a GMR keeps: a burst of
// captures (an InvalidateAll, a large batch) gives the rest back to the
// garbage collector.
const maxSpareCols = 256

// recycle keeps the columns of pre-image st, which Reclaim has trimmed, for
// the next capture. Caller holds snapMu.
//
// It is safe because a reader uses a capture only while it holds the pin
// that made the capture reachable: Reclaim trims a capture only when its tag
// is below the floor, the smallest pinned version, and a reader pinned at v
// reads only captures tagged v or later. Every snapshot read copies out of
// the columns it reached before it unpins — forward takes the result,
// Backward its matches, rowsAt (Retrieve, CheckConsistency) builds its Rows
// after entriesAt drops snapMu but under the pin — so no reader holds a
// capture's columns once the capture can be reclaimed.
// TestEntryCapturesRecycledRaceWriter checks it.
func (g *GMR) recycle(st entryState) {
	if st.cols != nil && len(g.spare) < maxSpareCols {
		clear(st.cols)
		g.spare = append(g.spare, st.cols[:0])
	}
}

// entryAt returns entry k's state as of version ver. Caller holds snapMu
// (read or write).
func (g *GMR) entryAt(k string, ver uint64) (entryState, bool) {
	if c, ok := g.vers.At(k, ver); ok {
		return c, c.exists
	}
	e, ok := g.entries[k]
	if !ok {
		return entryState{}, false
	}
	return stateOf(e, nil), true
}

// entriesAt reconstructs the full extension of g as of version ver: the
// live insertion order first (entries inserted after ver reconstruct to
// absent and drop out), then any since-removed entries that still existed
// at ver, in sorted key order.
func (g *GMR) entriesAt(ver uint64) []entryState {
	g.mgr.snapMu.RLock()
	defer g.mgr.snapMu.RUnlock()
	var out []entryState
	for _, e := range g.order {
		if st, ok := g.entryAt(e.key, ver); ok {
			out = append(out, st)
		}
	}
	var removed []string
	for _, k := range g.vers.Keys(nil) {
		if _, live := g.entries[k]; !live {
			removed = append(removed, k)
		}
	}
	sort.Strings(removed)
	for _, k := range removed {
		if st, ok := g.entryAt(k, ver); ok {
			out = append(out, st)
		}
	}
	return out
}

// rowsAt is entriesAt as Rows.
func (g *GMR) rowsAt(ver uint64) []Row {
	states := g.entriesAt(ver)
	rows := make([]Row, len(states))
	for i, st := range states {
		rows[i] = st.row()
	}
	return rows
}

// ReclaimEntryCaptures drops entry pre-images no pinned reader can reach
// (tags below floor) and keeps their columns for the next captures. Called
// from the facade's publish point.
func (m *Manager) ReclaimEntryCaptures(floor uint64) {
	m.snapMu.Lock()
	defer m.snapMu.Unlock()
	for _, g := range m.gmrs {
		g.vers.Reclaim(floor, g.recycle)
	}
}

// EntryCaptureCount reports the number of retained entry pre-images
// (reclamation audits).
func (m *Manager) EntryCaptureCount() int {
	m.snapMu.RLock()
	defer m.snapMu.RUnlock()
	n := 0
	for _, g := range m.gmrs {
		n += g.vers.Len()
	}
	return n
}

// Snapshot is a read-only view of the GMR manager and object base pinned at
// one MVCC version. It is safe to use concurrently with the single writer;
// its simulated charges land on a private clock and none of its operations
// mutate manager state.
type Snapshot struct {
	m     *Manager
	ver   uint64
	en    *schema.Engine
	clock *storage.Clock
}

// SnapshotAt returns a snapshot view pinned at version ver. The caller is
// responsible for holding an mvcc pin covering ver for the snapshot's
// lifetime (the Database facade pairs every SnapshotAt with State.Pin).
func (m *Manager) SnapshotAt(ver uint64) *Snapshot {
	s := &Snapshot{m: m, ver: ver, clock: storage.NewClock()}
	s.en = m.En.SnapshotAt(ver, s.clock)
	s.en.SetInterceptor(s.intercept)
	return s
}

// Version returns the pinned version.
func (s *Snapshot) Version() uint64 { return s.ver }

// Engine returns the snapshot's evaluation engine: object reads resolve at
// the pinned version, materialized calls route to Snapshot.Forward, and
// mutations fail with schema.ErrReadOnlyView.
func (s *Snapshot) Engine() *schema.Engine { return s.en }

// intercept answers invocations of materialized functions nested inside
// GOMpl bodies from the snapshot, mirroring Manager.intercept.
func (s *Snapshot) intercept(fid schema.FuncID, args []object.Value) (object.Value, bool, error) {
	c := s.m.colOf(fid)
	if c.g == nil {
		return object.Null(), false, nil
	}
	v, err := s.forward(c, args)
	return v, true, err
}

// forward answers a forward query at the pinned version: the stored result
// when the entry was valid at the version, a recomputation against the
// versioned object base otherwise — exactly the value the live path would
// have returned (rematerialization and incremental insertion recompute the
// same function), without its GMR side effects. It borrows args.
func (s *Snapshot) forward(c colRef, args []object.Value) (object.Value, error) {
	g, i := c.g, c.col
	if g.admitsArgs(args) {
		s.m.snapMu.RLock()
		st, ok := g.entryAt(argKey(args), s.ver)
		s.m.snapMu.RUnlock()
		if ok && st.cols[i].valid {
			return st.cols[i].result, nil
		}
	}
	return s.computeRaw(g.Funcs[i], args)
}

// computeRaw evaluates the plain function against the pinned object base,
// mirroring Manager.computeRaw (dynamic dispatch resolved at the version,
// nested materialized calls uninterested — EvalRaw disables interception).
func (s *Snapshot) computeRaw(fn *lang.Function, args []object.Value) (object.Value, error) {
	return s.en.EvalRaw(dispatch(s.en, fn, args), args)
}

// Call invokes the function or operation a call name resolved to against
// the snapshot (the snapshot path of Database.Call), mirroring Manager.Call:
// a materialized function is answered by the forward query, any other by
// Apply, and both borrow args. Mutating operations fail with
// schema.ErrReadOnlyView.
func (s *Snapshot) Call(c schema.Callee, args []object.Value) (object.Value, error) {
	fid, dt, err := s.en.Resolve(c, args)
	if err != nil {
		return object.Null(), err
	}
	if col := s.m.colOf(fid); col.g != nil && s.en.Intercepts() {
		return s.forward(col, args)
	}
	return s.en.Apply(c, fid, dt, args)
}

// Extension returns the extension of typeName at the pinned version.
func (s *Snapshot) Extension(typeName string) []object.OID {
	return s.m.Objs.ExtensionVersioned(typeName, s.ver)
}

// Backward answers a backward range query at the pinned version: every
// argument combination whose fid result lies in [lb, ub], with results that
// were invalid at the version recomputed on the fly (the live path
// revalidates the column first — same values, no mutation). Matches come in
// the order the live index scan would have returned them at the version:
// ascending result; among equal results, the entries valid at the version
// by index tie-break key, then the recomputed ones by argument key, the
// order in which revalidation would have re-indexed them.
func (s *Snapshot) Backward(fid string, lb, ub float64) ([]Match, error) {
	_, c, ok := s.m.colByName(fid)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotMaterialized, fid)
	}
	g, i := c.g, c.col
	if !g.Complete {
		return nil, fmt.Errorf("%w: %s", ErrIncomplete, g.Name)
	}
	if g.resIdx[i] == nil {
		return nil, fmt.Errorf("core: %s has a non-numeric result; no backward index", fid)
	}
	type scored struct {
		f float64
		// aux orders the entries valid at the version; recomputed ones
		// order by key, after them.
		aux        uint64
		recomputed bool
		key        string
		m          Match
	}
	var hits []scored
	for _, st := range g.entriesAt(s.ver) {
		c := st.cols[i]
		h := scored{aux: c.aux, m: Match{Args: st.args, Result: c.result}}
		if !c.valid {
			fresh, err := s.computeRaw(g.Funcs[i], st.args)
			if err != nil {
				return nil, err
			}
			h.m.Result, h.recomputed, h.key = fresh, true, argKey(st.args)
		}
		f, ok := h.m.Result.AsFloat()
		if !ok || f < lb || f > ub {
			continue
		}
		h.f = f
		hits = append(hits, h)
	}
	sort.Slice(hits, func(a, b int) bool {
		x, y := &hits[a], &hits[b]
		switch {
		case x.f != y.f:
			return x.f < y.f
		case x.recomputed != y.recomputed:
			return y.recomputed
		case x.recomputed:
			return x.key < y.key
		}
		return x.aux < y.aux
	})
	out := make([]Match, len(hits))
	for j, h := range hits {
		out[j] = h.m
	}
	return out, nil
}

// Retrieve answers a tabular GMR query at the pinned version. Constrained
// result columns that were invalid at the version are recomputed on the fly
// (the live path revalidates them first); unconstrained invalid columns
// keep their stale value with Valid == false, exactly like the live scan.
func (s *Snapshot) Retrieve(name string, spec []FieldSpec) ([]Row, error) {
	g, ok := s.m.gmrs[name]
	if !ok {
		return nil, fmt.Errorf("core: no GMR %q", name)
	}
	match, err := retrieveFilter(g, spec)
	if err != nil {
		return nil, err
	}
	n, mm := len(g.ArgTypes), len(g.Funcs)
	var rows []Row
	for _, row := range g.rowsAt(s.ver) {
		for i := 0; i < mm; i++ {
			if spec[n+i].constrained() && !row.Valid[i] {
				fresh, err := s.computeRaw(g.Funcs[i], row.Args)
				if err != nil {
					return nil, err
				}
				row.Results[i] = fresh
				row.Valid[i] = true
			}
		}
		if match(row.Args, row.Results) {
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// CheckConsistency audits Definition 3.2 (and, with checkComplete,
// Definition 3.4/6.1 completeness) for the named GMR at the pinned version:
// every entry valid at the version must equal a fresh recomputation against
// the versioned object base. This is the congruence audit of the snapshot
// machinery itself — a capture bug surfaces as a violation here.
func (s *Snapshot) CheckConsistency(name string, tol float64, checkComplete bool) (*ConsistencyReport, error) {
	g, ok := s.m.gmrs[name]
	if !ok {
		return nil, fmt.Errorf("core: no GMR %q", name)
	}
	get := func(oid object.OID) (*object.Obj, error) {
		return s.m.Objs.GetVersioned(oid, s.ver)
	}
	return s.m.audit(g, g.rowsAt(s.ver), s.en, get, s.Extension, tol, checkComplete)
}
