package gomdb

import (
	"fmt"

	"gomdb/internal/core"
)

// SnapshotView is an explicit handle on one MVCC snapshot: it pins the
// stable version current at construction and answers every read against the
// object base and GMR state as of that version, concurrent with writers and
// with no locking against them. The per-operation snapshot paths (Query,
// Call, ...) pin for one call each; a view holds its pin until Release, so a
// sequence of reads observes one consistent state — Definition 3.2 holds at
// the pinned version across all of them.
//
// A held pin blocks barrier operations (DDL, Materialize, Dematerialize,
// Close, Crash), so views should be short-lived: read, then Release. All
// reads through a view charge a throwaway clock — they never perturb the
// database's simulated cost accounting.
type SnapshotView struct {
	db      *Database
	snap    *core.Snapshot
	release func()
}

// SnapshotView pins the current stable version and returns a view of it.
// The caller must Release it (releasing twice is harmless).
func (db *Database) SnapshotView() *SnapshotView {
	ver, release := db.mvccSt.Pin()
	return &SnapshotView{db: db, snap: db.GMRs.SnapshotAt(ver), release: release}
}

// Version returns the pinned stable version.
func (v *SnapshotView) Version() uint64 { return v.snap.Version() }

// Release unpins the snapshot. The view must not be used afterwards.
func (v *SnapshotView) Release() { v.release() }

// Call invokes a side-effect-free function or operation at the pinned
// version; materialized functions are answered from the snapshot of their
// GMR. Functions that are not provably side-effect free are refused — a
// snapshot cannot apply updates.
func (v *SnapshotView) Call(fn string, args ...Value) (Value, error) {
	c, ok := v.db.Schema.Callee(fn)
	if !ok || !v.db.Schema.CalleeReadOnly(c) {
		return Null(), fmt.Errorf("gomdb: snapshot view: %s is not side-effect free", fn)
	}
	return v.snap.Call(c, args)
}

// Query executes a read-only GOMql statement at the pinned version.
// Statements whose plan is not provably read-only are refused.
func (v *SnapshotView) Query(src string, params map[string]Value) (*QueryResult, error) {
	q, err := v.db.Queries.Prepare(src)
	if err != nil {
		return nil, err
	}
	if ok, err := v.db.Queries.ReadOnlyPlan(q); err != nil {
		return nil, err
	} else if !ok {
		return nil, fmt.Errorf("gomdb: snapshot view: statement is not read-only")
	}
	return v.db.Queries.Snapshot(v.snap).RunQuery(q, params)
}

// Retrieve answers a tabular GMR query at the pinned version; columns that
// were invalid at that version are recomputed against it, not repaired.
func (v *SnapshotView) Retrieve(gmrName string, spec []FieldSpec) ([]Row, error) {
	return v.snap.Retrieve(gmrName, spec)
}

// GetAttr reads attribute attr of oid at the pinned version.
func (v *SnapshotView) GetAttr(oid OID, attr string) (Value, error) {
	return v.snap.Engine().ReadAttr(Ref(oid), attr)
}

// Extension returns the OIDs of all instances of typeName (and subtypes) at
// the pinned version.
func (v *SnapshotView) Extension(typeName string) []OID {
	return v.snap.Extension(typeName)
}

// CheckConsistency audits a GMR against Definition 3.2 (and, with
// checkComplete, Definition 3.4/6.1) at the pinned version: entries valid at
// the version must match recomputation against the object base at the same
// version, whatever the live engine has done since.
func (v *SnapshotView) CheckConsistency(gmrName string, tol float64, checkComplete bool) (*ConsistencyReport, error) {
	return v.snap.CheckConsistency(gmrName, tol, checkComplete)
}

// MVCCStats describes the version state of the snapshot read path, for
// audits and tests: the simulation harness asserts ActivePins == 0 and all
// capture counts reclaimed once its readers stop.
type MVCCStats struct {
	// StableVersion is the last published version.
	StableVersion uint64
	// ActivePins is the number of currently pinned readers.
	ActivePins int
	// PinnedVersions lists the distinct pinned versions, unordered.
	PinnedVersions []uint64
	// PageCaptures, ObjectCaptures, and EntryCaptures count the pre-image
	// captures currently held by the buffer pool, the object directory, and
	// the GMR entry overlay.
	PageCaptures   int
	ObjectCaptures int
	EntryCaptures  int
}

// MVCCStats returns a point-in-time sample of the version state. Counters
// are sampled independently; concurrent operations may shift them between
// reads.
func (db *Database) MVCCStats() MVCCStats {
	return MVCCStats{
		StableVersion:  db.mvccSt.Stable(),
		ActivePins:     db.mvccSt.Active(),
		PinnedVersions: db.mvccSt.PinnedVersions(),
		PageCaptures:   db.Pool.VersionCaptureCount(),
		ObjectCaptures: db.Objects.VersionCaptureCount(),
		EntryCaptures:  db.GMRs.EntryCaptureCount(),
	}
}
