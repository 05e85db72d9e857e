package core

import (
	"fmt"
	"sort"
	"strings"

	"gomdb/internal/lang"
	"gomdb/internal/mvcc"
	"gomdb/internal/object"
	"gomdb/internal/schema"
	"gomdb/internal/storage"
)

// MVCC snapshot reads over GMR state.
//
// A writer holding the exclusive Database lock mutates GMR entries through
// insertEntry / markInvalid / setResult / removeEntry. Each of those runs
// under the manager's snapMu and, before mutating, records the entry's
// pre-image in entryVers tagged with the current stable version S — meaning
// "this was the entry's state at every version <= S". A reader pinned at
// version V reconstructs an entry as the capture with the smallest tag
// >= V, falling through to the live entry when no capture covers it
// (nothing has mutated it since V). Captures tagged below the reclamation
// floor (no pinned reader can reach them) are dropped at each publish.
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

// entryCapture is one pre-image of a GMR entry: its state as of every
// version <= ver. exists == false records that the entry was absent (the
// pre-image of an insert). args may alias live state (argument vectors are
// never mutated in place); results and valid are copies.
type entryCapture struct {
	ver     uint64
	exists  bool
	args    []object.Value
	results []object.Value
	valid   []bool
}

// SetMVCC attaches the shared version state, enabling entry captures. Must
// be called before any concurrent use (the facade wires it at open).
func (m *Manager) SetMVCC(st *mvcc.State) {
	m.snapSt = st
	if st != nil && m.entryVers == nil {
		m.entryVers = make(map[string]map[string][]entryCapture)
	}
}

// captureEntry records the pre-image of entry k of g (e == nil: absent)
// unless the current stable version already has one. Caller holds snapMu.
func (m *Manager) captureEntry(g *GMR, k string, e *entry) {
	if m.snapSt == nil {
		return
	}
	stable := m.snapSt.Stable()
	per := m.entryVers[g.Name]
	if per == nil {
		per = make(map[string][]entryCapture)
		m.entryVers[g.Name] = per
	}
	caps := per[k]
	if n := len(caps); n > 0 && caps[n-1].ver == stable {
		return
	}
	c := entryCapture{ver: stable}
	if e != nil {
		c.exists = true
		c.args = e.Args
		c.results = append([]object.Value(nil), e.Results...)
		c.valid = append([]bool(nil), e.Valid...)
	}
	per[k] = append(caps, c)
}

// entryRowAt reconstructs entry k of g as of version ver. Caller holds
// snapMu (read or write). The returned row never aliases live entry state.
func (m *Manager) entryRowAt(g *GMR, k string, ver uint64) (Row, bool) {
	caps := m.entryVers[g.Name][k]
	i := sort.Search(len(caps), func(i int) bool { return caps[i].ver >= ver })
	if i < len(caps) {
		c := caps[i]
		if !c.exists {
			return Row{}, false
		}
		return Row{
			Args:    c.args,
			Results: append([]object.Value(nil), c.results...),
			Valid:   append([]bool(nil), c.valid...),
		}, true
	}
	e, ok := g.entries[k]
	if !ok {
		return Row{}, false
	}
	return Row{
		Args:    e.Args,
		Results: append([]object.Value(nil), e.Results...),
		Valid:   append([]bool(nil), e.Valid...),
	}, true
}

// entryRowsAt reconstructs the full extension of g as of version ver: the
// live insertion order first (entries inserted after ver reconstruct to
// absent and drop out), then any since-removed entries that still existed
// at ver, in sorted key order.
func (m *Manager) entryRowsAt(g *GMR, ver uint64) []Row {
	m.snapMu.RLock()
	defer m.snapMu.RUnlock()
	live := make(map[string]bool, len(g.order))
	var rows []Row
	for _, e := range g.order {
		live[e.key] = true
		if row, ok := m.entryRowAt(g, e.key, ver); ok {
			rows = append(rows, row)
		}
	}
	var extras []string
	for k := range m.entryVers[g.Name] {
		if !live[k] {
			extras = append(extras, k)
		}
	}
	sort.Strings(extras)
	for _, k := range extras {
		if row, ok := m.entryRowAt(g, k, ver); ok {
			rows = append(rows, row)
		}
	}
	return rows
}

// ReclaimEntryCaptures drops entry pre-images no pinned reader can reach
// (tags below floor). Called from the facade's publish point.
func (m *Manager) ReclaimEntryCaptures(floor uint64) {
	if m.snapSt == nil {
		return
	}
	m.snapMu.Lock()
	defer m.snapMu.Unlock()
	for name, per := range m.entryVers {
		for k, caps := range per {
			j := 0
			for j < len(caps) && caps[j].ver < floor {
				j++
			}
			if j == len(caps) {
				delete(per, k)
			} else if j > 0 {
				per[k] = append([]entryCapture(nil), caps[j:]...)
			}
		}
		if len(per) == 0 {
			delete(m.entryVers, name)
		}
	}
}

// EntryCaptureCount reports the number of retained entry pre-images
// (reclamation audits).
func (m *Manager) EntryCaptureCount() int {
	m.snapMu.RLock()
	defer m.snapMu.RUnlock()
	n := 0
	for _, per := range m.entryVers {
		for _, caps := range per {
			n += len(caps)
		}
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
// mutations fail with schema.ErrShadowMutation.
func (s *Snapshot) Engine() *schema.Engine { return s.en }

// intercept answers invocations of materialized functions from the
// snapshot, mirroring Manager.intercept.
func (s *Snapshot) intercept(fn *lang.Function, args []object.Value) (object.Value, bool, error) {
	if _, ok := s.m.byFunc[fn.Name]; !ok {
		return object.Null(), false, nil
	}
	v, err := s.Forward(fn.Name, args)
	return v, true, err
}

// Forward answers a forward query at the pinned version: the stored result
// when the entry was valid at the version, a recomputation against the
// versioned object base otherwise — exactly the value the live path would
// have returned (rematerialization and incremental insertion recompute the
// same function), without its GMR side effects.
func (s *Snapshot) Forward(fid string, args []object.Value) (object.Value, error) {
	g, ok := s.m.byFunc[fid]
	if !ok {
		return object.Null(), fmt.Errorf("%w: %s", ErrNotMaterialized, fid)
	}
	i := g.funcIndex(fid)
	if g.admitsArgs(args) {
		s.m.snapMu.RLock()
		row, ok := s.m.entryRowAt(g, argKey(args), s.ver)
		s.m.snapMu.RUnlock()
		if ok && row.Valid[i] {
			return row.Results[i], nil
		}
	}
	return s.computeRaw(g.Funcs[i], args)
}

// computeRaw evaluates the plain function against the pinned object base,
// mirroring Manager.computeRaw (dynamic dispatch resolved at the version,
// nested materialized calls uninterested — EvalRaw disables interception).
func (s *Snapshot) computeRaw(fn *lang.Function, args []object.Value) (object.Value, error) {
	return s.en.EvalRaw(s.dispatch(fn, args), args)
}

// dispatch mirrors Manager.dispatch with the receiver read at the pinned
// version.
func (s *Snapshot) dispatch(fn *lang.Function, args []object.Value) *lang.Function {
	dot := strings.IndexByte(fn.Name, '.')
	if dot < 0 || len(args) == 0 || args[0].Kind != object.KRef {
		return fn
	}
	o, err := s.m.Objs.GetVersioned(args[0].R, s.ver)
	if err != nil {
		return fn
	}
	if variant, ok := s.m.Sch.ResolveOp(o.Type, fn.Name[dot+1:]); ok {
		return variant
	}
	return fn
}

// Call invokes a declared function or operation against the snapshot
// (the snapshot path of Database.Call). Mutating operations fail with
// schema.ErrShadowMutation.
func (s *Snapshot) Call(fn string, args ...object.Value) (object.Value, error) {
	return s.en.CallFunction(fn, args)
}

// Extension returns the extension of typeName at the pinned version.
func (s *Snapshot) Extension(typeName string) []object.OID {
	return s.m.Objs.ExtensionVersioned(typeName, s.ver)
}

// Backward answers a backward range query at the pinned version: every
// argument combination whose fid result lies in [lb, ub], with results that
// were invalid at the version recomputed on the fly (the live path
// revalidates the column first — same values, no mutation). Matches are
// ordered by ascending result, ties by argument key, mirroring the live
// index scan.
func (s *Snapshot) Backward(fid string, lb, ub float64) ([]Match, error) {
	g, ok := s.m.byFunc[fid]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotMaterialized, fid)
	}
	if !g.Complete {
		return nil, fmt.Errorf("%w: %s", ErrIncomplete, g.Name)
	}
	i := g.funcIndex(fid)
	if g.resIdx[i] == nil {
		return nil, fmt.Errorf("core: %s has a non-numeric result; no backward index", fid)
	}
	rows := s.m.entryRowsAt(g, s.ver)
	type scored struct {
		f float64
		m Match
	}
	var hits []scored
	for _, row := range rows {
		v := row.Results[i]
		if !row.Valid[i] {
			fresh, err := s.computeRaw(g.Funcs[i], row.Args)
			if err != nil {
				return nil, err
			}
			v = fresh
		}
		f, ok := v.AsFloat()
		if !ok {
			continue
		}
		if f < lb || f > ub {
			continue
		}
		hits = append(hits, scored{f: f, m: Match{Args: row.Args, Result: v}})
	}
	sort.Slice(hits, func(a, b int) bool {
		if hits[a].f != hits[b].f {
			return hits[a].f < hits[b].f
		}
		return argKey(hits[a].m.Args) < argKey(hits[b].m.Args)
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
	for _, row := range s.m.entryRowsAt(g, s.ver) {
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
	return s.m.audit(g, s.m.entryRowsAt(g, s.ver), s.en, get, s.Extension, tol, checkComplete)
}
