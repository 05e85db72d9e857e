package gomdb

import "gomdb/internal/cluster"

// Trace-driven object clustering. Every (re)materialization records the
// ordered sequence of objects the computation read (the forward trace);
// Recluster feeds those traces to internal/cluster, which computes an
// affinity-weighted placement order — objects that materialized functions
// read together end up on the same pages, hottest chains first, untraced
// objects last — and physically rewrites the object heap in that order.
// OIDs never change, so GMR argument columns, RRR tuples, and extents are
// untouched; only the OID directory is remapped. See DESIGN.md,
// "Object clustering".

// ReclusterReport describes one reclustering pass.
type ReclusterReport struct {
	// Objects is the number of live objects placed (every one of them).
	Objects int `json:"objects"`
	// Moved counts objects whose physical record id changed.
	Moved int `json:"moved"`
	// HotObjects counts objects that appeared in at least one forward trace.
	HotObjects int `json:"hotObjects"`
	// Hubs counts hot objects placed in the packed hub region instead of a
	// chain, because they are co-accessed with many distinct partners.
	Hubs int `json:"hubs"`
	// Chains counts affinity chains of length >= 2 in the placement.
	Chains int `json:"chains"`
	// Edges counts distinct co-access pairs observed across the traces.
	Edges int `json:"edges"`
	// Traces counts the forward traces that contributed to the placement.
	Traces int `json:"traces"`
	// PagesBefore/PagesAfter are the object-heap page counts around the
	// relocation (relocation also compacts deleted slack, so PagesAfter can
	// shrink).
	PagesBefore int `json:"pagesBefore"`
	PagesAfter  int `json:"pagesAfter"`
}

// Recluster physically reorders the object base by trace affinity. It runs
// under the reader barrier — the relocation frees the old pages, which no
// pinned snapshot reader may still need — and charges the simulated Clock
// for the record reads and page writes the rewrite performs, exactly as the
// storage layer charges any other access. The pass is deterministic: traces
// are consumed in canonical order and all ties break on OIDs.
//
// On a durable database the relocated pages become durable at the NEXT
// checkpoint (Recluster itself does not checkpoint): a crash before it
// recovers the pre-relocation layout from the previous checkpoint, a crash
// after it recovers the clustered layout — never a mix.
func (db *Database) Recluster() (*ReclusterReport, error) {
	db.lockBarrier()
	defer db.unlockBarrier()
	live := db.Objects.AllOIDs()
	p := cluster.Compute(db.GMRs.AccessTraces(), live)
	rep := &ReclusterReport{
		Objects:     len(live),
		HotObjects:  p.HotObjects,
		Hubs:        p.Hubs,
		Chains:      p.Chains,
		Edges:       p.Edges,
		Traces:      p.Traces,
		PagesBefore: db.Objects.HeapPages(),
	}
	moved, err := db.Objects.Relocate(p.Order)
	if err != nil {
		return nil, err
	}
	rep.Moved = moved
	rep.PagesAfter = db.Objects.HeapPages()
	return rep, nil
}
