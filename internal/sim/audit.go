package sim

import (
	"fmt"

	"gomdb"
	"gomdb/internal/object"
	"gomdb/internal/shard"
)

// auditTol is the relative tolerance for comparing stored results against
// fresh recomputations. Recomputation replays the identical float operations
// against the identical object state, so results must match essentially
// bit-for-bit; the tolerance only absorbs non-associativity in aggregate
// functions.
const auditTol = 1e-9

// Audit runs every invariant auditor against a quiescent database and
// returns the violations found (empty for a healthy engine). The caller must
// have drained the deferred queue first — a pending rematerialization is not
// an inconsistency, it is scheduled work.
//
// The auditors:
//
//  1. Definition 3.2 congruence — every valid GMR entry equals a fresh
//     recomputation of its function (core.CheckConsistency), and, for
//     complete GMRs, Definition 3.4 completeness against the current type
//     extensions.
//  2. RRR soundness — every valid entry's argument objects carry supporting
//     RRR tuples, so a future update of those objects can find and
//     invalidate the entry. (Left-over tuples in the other direction are
//     legitimate: Section 4.2's blind references are cleaned lazily.)
//  3. Pin-leak accounting — no buffer frame is left pinned at a quiescent
//     point; a leaked pin would eventually wedge the pool.
//  4. Deferred-queue emptiness — after a flush the pending queue must be
//     empty, or Flush is silently dropping work.
//  5. MVCC quiescence — no snapshot pin is active at a quiescent point, and
//     every version capture has been reclaimed (the flush preceding the audit
//     published a version with no pinned reader below it, so the overlays
//     must be empty; a surviving capture is a reclamation leak).
//  6. Directory ↔ heap correspondence — every directory entry resolves to
//     exactly one live, decodable heap slot and every extent member has a
//     directory entry (object.Manager.AuditDirectory). An aborted or buggy
//     relocation would surface here as a dangling or shared slot.
func Audit(db *gomdb.Database) []string {
	var out []string
	out = append(out, db.Objects.AuditDirectory()...)
	if n := db.GMRs.PendingLen(); n != 0 {
		out = append(out, fmt.Sprintf("deferred queue: %d items pending after flush", n))
	}
	if n := db.Pool.PinnedCount(); n != 0 {
		out = append(out, fmt.Sprintf("pin leak: %d frames pinned at quiescent point", n))
	}
	if st := db.MVCCStats(); st.Enabled {
		if st.ActivePins != 0 {
			out = append(out, fmt.Sprintf("mvcc: %d snapshot pins active at quiescent point", st.ActivePins))
		}
		if st.PageCaptures != 0 || st.ObjectCaptures != 0 || st.EntryCaptures != 0 {
			out = append(out, fmt.Sprintf(
				"mvcc: captures leaked at quiescent point (pages=%d objects=%d entries=%d)",
				st.PageCaptures, st.ObjectCaptures, st.EntryCaptures))
		}
	}
	for _, name := range db.GMRs.GMRs() {
		g, ok := db.GMRs.Get(name)
		if !ok {
			continue
		}
		rep, err := db.CheckConsistency(name, auditTol, g.Complete)
		if err != nil {
			out = append(out, "consistency check "+name+": "+err.Error())
			continue
		}
		for _, v := range rep.Violations {
			out = append(out, name+": "+v)
		}
		out = append(out, auditRRRSupport(db, name, g)...)
	}
	return out
}

// auditRRRSupport verifies invariant 2: for every fully- or partially-valid
// entry of g, every argument object still referenced by the entry has at
// least one RRR tuple per valid materialized function. Without that tuple an
// update of the argument object could never invalidate the entry — exactly
// the failure mode the deliberately-broken invalidation hook simulates
// upstream of the RRR (and which auditor 1 catches as stale results).
func auditRRRSupport(db *gomdb.Database, name string, g *gomdb.GMR) []string {
	var out []string
	rrr := db.GMRs.RRR()
	g.Entries(func(args, results []object.Value, valid []bool) bool {
		for i, fn := range g.Funcs {
			if !valid[i] {
				continue
			}
			for _, a := range args {
				if a.Kind != object.KRef {
					continue
				}
				if rrr.FctCount(a.R, fn.Name) == 0 {
					out = append(out, fmt.Sprintf(
						"%s: valid entry for %s lacks RRR support on argument %s",
						name, fn.Name, a.R))
				}
			}
		}
		return true
	})
	return out
}

// AuditSharded runs the single-engine auditor battery on every shard
// (messages prefixed with the shard index) and then checks the router's
// cross-shard invariants:
//
//  1. Ownership residence — every routing-table entry resolves to a live
//     object on its owning shard, and a replicated entry resolves on EVERY
//     shard.
//  2. Placement exclusivity — a non-replicated OID lives on exactly the one
//     shard the routing table names; an OID on multiple shards must be a
//     registered replica.
//  3. Extension completeness — the union of the per-shard type extensions
//     is exactly the routed population: no object is missing from the merge
//     and none appears under two owners.
func AuditSharded(db *shard.DB) []string {
	var out []string
	db.EachShard(func(i int, sh *gomdb.Database) error {
		for _, m := range Audit(sh) {
			out = append(out, fmt.Sprintf("shard %d: %s", i, m))
		}
		return nil
	})

	n := db.Shards()
	present := make(map[gomdb.OID]int) // OID -> count of shards holding it
	where := make(map[gomdb.OID]int)   // OID -> some shard holding it
	db.EachShard(func(i int, sh *gomdb.Database) error {
		for _, oid := range sh.Objects.AllOIDs() {
			present[oid]++
			where[oid] = i
		}
		return nil
	})
	for oid, cnt := range present {
		own, ok := db.Owner(oid)
		if !ok {
			out = append(out, fmt.Sprintf("router: object %v on shard %d has no routing entry", oid, where[oid]))
			continue
		}
		switch {
		case own == -1 && cnt != n:
			out = append(out, fmt.Sprintf("router: replicated %v present on %d/%d shards", oid, cnt, n))
		case own >= 0 && cnt != 1:
			out = append(out, fmt.Sprintf("router: %v owned by shard %d but present on %d shards", oid, own, cnt))
		case own >= 0 && where[oid] != own:
			out = append(out, fmt.Sprintf("router: %v routed to shard %d but lives on shard %d", oid, own, where[oid]))
		}
	}
	// Every routing entry must resolve to a live object.
	for _, oid := range db.RoutedOIDs() {
		if present[oid] == 0 {
			own, _ := db.Owner(oid)
			out = append(out, fmt.Sprintf("router: routing entry %v -> %d resolves to no live object", oid, own))
		}
	}
	return out
}
