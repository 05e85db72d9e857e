package core

import (
	"sort"

	"gomdb/internal/object"
)

// Maintenance sweeps the paper sketches as alternatives to fully lazy
// cleanup (Section 4.1/4.2): a periodic reorganization of the RRR that
// removes left-over and blind-reference tuples eagerly, and a garbage
// collection for result objects of complex-valued materialized functions
// that were superseded by rematerializations ("a garbage collection
// mechanism can be employed to remove unreferenced objects").

// ReorganizeRRR removes every tuple whose materialized result no longer
// exists: left-overs from earlier materializations that visited different
// objects, blind references to removed entries, and tuples of dropped GMRs.
// It returns the number of tuples removed.
func (m *Manager) ReorganizeRRR() (int, error) {
	var victims []Tuple
	err := m.rrr.Scan(func(t Tuple) bool {
		g := m.gmrByFctID(t.F)
		if g == nil {
			victims = append(victims, t)
			return true
		}
		if _, ok := g.lookup(t.Args); !ok {
			victims = append(victims, t)
		}
		return true
	})
	if err != nil {
		return 0, err
	}
	for _, t := range victims {
		if err := m.removeRRR(t.O, t.F, t.Args); err != nil {
			return 0, err
		}
	}
	return len(victims), nil
}

// gmrByFctID resolves a function id or predicate pseudo-id to its GMR.
func (m *Manager) gmrByFctID(fid string) *GMR {
	if _, c, ok := m.colByName(fid); ok {
		return c.g
	}
	if len(fid) > 2 && fid[:2] == "p:" {
		return m.gmrs[fid[2:]]
	}
	return nil
}

// trackResultObjects records the objects created while materializing a
// complex result; CollectResultGarbage may reclaim them once unreferenced.
// The [from, to) OID window is filtered against this engine's own directory:
// with a shared OID allocator (internal/shard) the window may contain OIDs
// handed to other engine instances, and marking a foreign OID here would
// leak it into this engine's result-object set — and, on a durable database,
// into the persisted ResultObjs metadata. The Exists check is a charge-free
// map lookup, so single-engine accounting is unchanged.
func (m *Manager) trackResultObjects(from, to object.OID) {
	if m.resultObjs == nil {
		m.resultObjs = make(map[object.OID]bool)
	}
	for oid := from; oid < to; oid++ {
		if m.Objs.Exists(oid) {
			m.resultObjs[oid] = true
		}
	}
}

// CollectResultGarbage deletes result objects that are no longer reachable
// from any non-result object or any GMR result column. Invalidated entries
// keep their (stale) result objects alive until rematerialization replaces
// them. Returns the number of objects reclaimed.
//
// Only objects created by the GMR manager while storing complex results are
// candidates; ordinary object-base contents are never touched, which is why
// the paper cannot simply delete superseded results — "they may be
// referenced in other contexts independently of the materialization".
func (m *Manager) CollectResultGarbage() (int, error) {
	if len(m.resultObjs) == 0 {
		return 0, nil
	}
	reachable := make(map[object.OID]bool)
	var stack []object.OID
	push := func(oid object.OID) {
		if m.resultObjs[oid] && !reachable[oid] && m.Objs.Exists(oid) {
			reachable[oid] = true
			stack = append(stack, oid)
		}
	}
	pushValue := func(v object.Value) {
		if v.Kind == object.KRef {
			push(v.R)
		}
	}
	// Roots: GMR result columns. Iterate GMRs by sorted name and entries in
	// insertion order so the traversal (and hence the charged page-access
	// sequence) is deterministic for a given history.
	for _, name := range m.GMRs() {
		g := m.gmrs[name]
		for _, e := range g.order {
			for _, r := range e.Results {
				pushValue(r)
			}
		}
	}
	// Roots: references from non-result objects anywhere in the base.
	for _, tn := range m.Sch.Reg.Types() {
		for _, oid := range m.Objs.Extension(tn) {
			if m.resultObjs[oid] {
				continue
			}
			o, err := m.Objs.Get(oid)
			if err != nil {
				return 0, err
			}
			for _, v := range o.Attrs {
				pushValue(v)
			}
			for _, v := range o.Elems {
				pushValue(v)
			}
		}
	}
	// Traverse within the result-object graph.
	for len(stack) > 0 {
		oid := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		o, err := m.Objs.Get(oid)
		if err != nil {
			return 0, err
		}
		for _, v := range o.Attrs {
			pushValue(v)
		}
		for _, v := range o.Elems {
			pushValue(v)
		}
	}
	// Sweep in ascending OID order so deletions hit pages deterministically.
	collected := 0
	candidates := make([]object.OID, 0, len(m.resultObjs))
	for oid := range m.resultObjs {
		candidates = append(candidates, oid)
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i] < candidates[j] })
	for _, oid := range candidates {
		if reachable[oid] {
			continue
		}
		if m.Objs.Exists(oid) {
			if err := m.En.Delete(oid); err != nil {
				return collected, err
			}
			collected++
		}
		delete(m.resultObjs, oid)
	}
	return collected, nil
}
