package object

import (
	"fmt"
	"sort"

	"gomdb/internal/storage"
)

// Physical relocation of the object base. The clustering pass
// (internal/cluster) computes a placement order over all live OIDs; Relocate
// rewrites the heap in that order and remaps the OID directory. OIDs are the
// only stable names the rest of the engine holds — the RRR, GMR argument
// columns, and extents all reference objects by OID, never by RID — so
// remapping the directory is the entire reference fixup.
//
// Callers must hold the MVCC write barrier (no pinned snapshot readers): the
// directory remap deliberately takes no pre-image captures, because a reader
// pinned across a relocation would otherwise need the old page set, which the
// relocation frees.

// Relocate rewrites the object heap so records appear in exactly the given
// OID order and remaps the directory. order must name every live object
// exactly once. The move is all-or-nothing (see storage.HeapFile.Relocate):
// on error the heap and directory are unchanged. It returns the number of
// objects whose record id changed.
func (m *Manager) Relocate(order []OID) (int, error) {
	if len(order) != len(m.rids) {
		return 0, fmt.Errorf("object: relocate order names %d objects, directory holds %d",
			len(order), len(m.rids))
	}
	ridOrder := make([]storage.RID, len(order))
	for i, oid := range order {
		rid, ok := m.rids[oid]
		if !ok {
			return 0, fmt.Errorf("object: relocate order names unknown object %v", oid)
		}
		ridOrder[i] = rid
	}
	remap, err := m.heap.Relocate(ridOrder)
	if err != nil {
		return 0, err
	}
	moved := 0
	for i, oid := range order {
		newRID := remap[ridOrder[i]]
		if newRID != ridOrder[i] {
			moved++
			if m.journal != nil {
				m.journal.move(oid, newRID)
			}
		}
		m.rids[oid] = newRID
	}
	return moved, nil
}

// AllOIDs returns every live OID in ascending order — the canonical live set
// the clustering pass appends cold objects from.
func (m *Manager) AllOIDs() []OID {
	out := make([]OID, 0, len(m.rids))
	for oid := range m.rids {
		out = append(out, oid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// RIDOf returns the record id currently backing oid. It is a charge-free
// directory lookup for diagnostics and access statistics; the record itself
// is not touched.
func (m *Manager) RIDOf(oid OID) (storage.RID, bool) {
	rid, ok := m.rids[oid]
	return rid, ok
}

// AuditDirectory verifies the directory ↔ heap correspondence and returns
// the violations found: every directory entry must resolve to exactly one
// live heap slot holding a decodable record, no two entries may share a
// slot, every extent member must be in the directory, and the live-record
// count must match. All reads go through the charge-free snapshot path, so
// auditing never perturbs the simulated clock. The simulation harness runs
// it at every quiescent point.
func (m *Manager) AuditDirectory() []string {
	var out []string
	seen := make(map[storage.RID]OID, len(m.rids))
	for _, oid := range m.AllOIDs() {
		rid := m.rids[oid]
		if prev, dup := seen[rid]; dup {
			out = append(out, fmt.Sprintf("directory: objects %v and %v share heap slot %v", prev, oid, rid))
			continue
		}
		seen[rid] = oid
		rec, err := m.heap.ReadSnapshot(rid)
		if err != nil {
			out = append(out, fmt.Sprintf("directory: object %v does not resolve to a live heap slot: %v", oid, err))
			continue
		}
		if _, err := m.decodeObj(oid, rec); err != nil {
			out = append(out, fmt.Sprintf("directory: object %v resolves to an undecodable record at %v: %v", oid, rid, err))
		}
	}
	if m.heap.Count() != len(m.rids) {
		out = append(out, fmt.Sprintf("directory: heap holds %d live records, directory holds %d entries",
			m.heap.Count(), len(m.rids)))
	}
	types := make([]string, 0, len(m.extents))
	for tn := range m.extents {
		types = append(types, tn)
	}
	sort.Strings(types)
	for _, tn := range types {
		for _, oid := range m.extents[tn].order {
			if _, ok := m.rids[oid]; !ok {
				out = append(out, fmt.Sprintf("directory: extension of %q lists object %v with no directory entry", tn, oid))
			}
		}
	}
	return out
}
