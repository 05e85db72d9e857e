package core

import (
	"sort"

	"gomdb/internal/object"
)

// Durable catalog of the GMR manager. A checkpoint does NOT persist GMR
// extensions, RRR tuples, indexes, or the deferred queue — only the catalog
// below: enough to re-issue every Materialize on recovery. Recovery therefore
// "re-validates by recomputation": complete GMRs are fully repopulated from
// the restored object base (so every entry is correct by construction, and an
// invalidation that was in flight at crash time is healed rather than
// replayed), while incremental GMRs come back as empty caches (their entries
// are dropped — a cache refills, it is never stale). This is also why pending
// deferred work never survives a crash as a silently-stale valid result:
// there is no persisted entry for it to hide in.

// GMRMeta is the persisted description of one GMR: the Options it was created
// with, in serializable form. Restriction predicates and atomic-argument
// restrictions are function values (Go ASTs/closures) and cannot be
// persisted; the facade refuses to materialize restricted GMRs on a durable
// database, so Restricted is recorded purely as a guard against catalogs
// written by future formats.
type GMRMeta struct {
	Name         string   `json:"name"`
	Funcs        []string `json:"funcs"`
	Strategy     uint8    `json:"strategy"`
	Mode         uint8    `json:"mode"`
	Complete     bool     `json:"complete,omitempty"`
	MaxEntries   int      `json:"maxEntries,omitempty"`
	SecondChance bool     `json:"secondChance,omitempty"`
	UseMDS       bool     `json:"useMDS,omitempty"`
	Restricted   bool     `json:"restricted,omitempty"`
}

// Options reconstructs the Materialize options the meta entry describes.
func (gm GMRMeta) Options() Options {
	return Options{
		Name:         gm.Name,
		Funcs:        append([]string(nil), gm.Funcs...),
		Strategy:     Strategy(gm.Strategy),
		Mode:         HookMode(gm.Mode),
		Complete:     gm.Complete,
		MaxEntries:   gm.MaxEntries,
		SecondChance: gm.SecondChance,
		UseMDS:       gm.UseMDS,
	}
}

// ExportCatalog returns the catalog of all installed GMRs, sorted by name so
// the checkpoint metadata is byte-deterministic.
func (m *Manager) ExportCatalog() []GMRMeta {
	names := make([]string, 0, len(m.gmrs))
	for n := range m.gmrs {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]GMRMeta, 0, len(names))
	for _, n := range names {
		g := m.gmrs[n]
		out = append(out, GMRMeta{
			Name:         g.Name,
			Funcs:        g.FuncIDs(),
			Strategy:     uint8(g.Strategy),
			Mode:         uint8(g.Mode),
			Complete:     g.Complete,
			MaxEntries:   g.MaxEntries,
			SecondChance: g.SecondChance,
			UseMDS:       g.mds != nil,
			Restricted:   g.Restriction != nil || len(g.AtomicArgs) > 0,
		})
	}
	return out
}

// ResultObjectIDs returns the sorted OIDs of objects created to store complex
// materialized results. They are persisted so a recovered manager keeps
// garbage-collecting the previous incarnation's result objects.
func (m *Manager) ResultObjectIDs() []object.OID {
	out := make([]object.OID, 0, len(m.resultObjs))
	for oid := range m.resultObjs {
		out = append(out, oid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// RestoreResultObjects re-registers persisted result-object OIDs after
// recovery, skipping any that no longer exist (already collected, but the
// delete had not been checkpointed — impossible with checkpoint-per-batch,
// tolerated for robustness).
func (m *Manager) RestoreResultObjects(oids []object.OID) {
	for _, oid := range oids {
		if m.Objs.Exists(oid) {
			m.resultObjs[oid] = true
		}
	}
}
