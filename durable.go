package gomdb

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"gomdb/internal/core"
	"gomdb/internal/storage"
)

// Durable databases. With Config.Path set, the simulated disk gains a real
// file-backed page store behind it (storage.PageStore): at every checkpoint
// point — Flush, Batch end, Materialize, Dematerialize, Close, or an explicit
// Checkpoint call — the pages written since the last checkpoint, the OID
// directory ops journaled since then and a small metadata header are made
// durable atomically through a physical write-ahead log with page-level redo
// records and checksums. Reopening the directory replays the WAL, restores
// the object base, and rebuilds every GMR from its persisted catalog
// description.
//
// Three properties are deliberate:
//
//   - A checkpoint costs what changed since the last one, not what the base
//     holds: dirty pages, journaled directory ops, and a header whose only
//     base-dependent part is the object heap's page list.
//
//   - The simulated Clock is bit-identical whether durability is on or off:
//     checkpoint I/O is real I/O, charged to nothing, and the dirty-page
//     bookkeeping never touches the buffer pool's simulated write-back
//     accounting. The paper's figures are unchanged by durability.
//
//   - GMR extensions, RRR tuples, indexes, and the deferred queue are NOT
//     persisted — only the catalog of Materialize options is. Recovery
//     re-validates by recomputation: complete GMRs repopulate fully from the
//     restored objects (healing any invalidation that was in flight at crash
//     time), incremental GMRs come back as empty caches. Deferred work
//     pending at the crash can therefore never resurface as a silently-stale
//     valid entry.

// ErrSimulatedCrash marks an injected crash point in the durable layer
// (TestingFailNextCheckpoint or a FaultTornWrite rule); match it with
// errors.Is. After it surfaces, the database must be treated as crashed:
// call Crash and reopen the directory.
var ErrSimulatedCrash = storage.ErrSimulatedCrash

var errRestrictedDurable = errors.New(
	"gomdb: restricted GMRs (Restriction/AtomicArgs) are not supported on durable databases: " +
		"their predicates are code and cannot be rebuilt on recovery")

// durableMeta is the engine metadata header of one checkpoint. It is
// deterministic JSON: every map is exported as a sorted slice, so identical
// engine states serialize to identical bytes. The OID directory is not in it:
// the store keeps that as a snapshot plus per-checkpoint deltas, and DirSeq
// names the checkpoint sequence number the directory must have been replayed
// to for this header to describe it.
type durableMeta struct {
	Version    int             `json:"version"`
	SchemaSig  uint64          `json:"schemaSig"`
	NextPage   uint32          `json:"nextPage"`
	NextOID    OID             `json:"nextOID"`
	Heap       storage.HeapDir `json:"heap"`
	DirSeq     uint64          `json:"dirSeq"`
	ResultObjs []OID           `json:"resultObjs,omitempty"`
	GMRs       []core.GMRMeta  `json:"gmrs,omitempty"`
	// Pending records the deferred-queue length at checkpoint time (nonzero
	// only for checkpoints taken outside flush points, e.g. Materialize);
	// recovery reports it as PendingDiscarded.
	Pending int `json:"pending,omitempty"`
}

// RecoveryInfo describes what OpenAt recovered from an existing directory.
type RecoveryInfo struct {
	// Recovered is true when the directory held a committed checkpoint.
	Recovered bool
	// WALPagesReplayed counts page images re-applied from a committed WAL
	// batch (the crash hit between WAL commit and data-file apply).
	WALPagesReplayed int
	// TornPagesRepaired counts data-file records with invalid checksums
	// whose content recovery took from the WAL copy instead.
	TornPagesRepaired int
	// WALTailDiscarded is true when an uncommitted WAL tail was thrown away
	// (the crash hit mid-append; the previous checkpoint survived).
	WALTailDiscarded bool
	// ObjectsRestored is the number of objects in the recovered base.
	ObjectsRestored int
	// DirOpsReplayed counts the journaled directory ops (create, move,
	// delete) replayed over the directory snapshot; 0 when the last
	// checkpoint wrote a fresh snapshot.
	DirOpsReplayed int
	// GMRsRebuilt is the number of GMRs re-materialized from the catalog.
	GMRsRebuilt int
	// CachesReset names the incremental (non-complete) GMRs that came back
	// as empty caches — their entries were dropped rather than re-validated.
	CachesReset []string
	// PendingDiscarded is the number of deferred-queue entries that were
	// pending at the recovered checkpoint; their invalidations were healed
	// by full recomputation.
	PendingDiscarded int
}

// OpenAt opens (creating if necessary) a durable database in cfg.Path,
// running recovery when the directory holds an existing base. It is Open for
// callers that want recovery failures as errors instead of panics.
func OpenAt(cfg Config) (*Database, error) {
	if cfg.Path == "" {
		return nil, errors.New("gomdb: OpenAt requires Config.Path")
	}
	db := newDatabase(cfg)
	ps, img, err := storage.OpenPageStore(cfg.Path)
	if err != nil {
		return nil, err
	}
	db.Disk.EnableDurability()
	ps.SetTornWriteHook(db.Disk.CheckTornWrite)
	db.store = ps
	db.Objects.EnableDirJournal()
	// A panic below — typically a DefineSchema callback using the MustDefine*
	// helpers, or a recovery assertion — must not escape with the store still
	// open: that leaks the file descriptors and the directory lock, so the
	// same path can never be reopened in-process. Close the store first, then
	// let the panic continue.
	defer func() {
		if r := recover(); r != nil {
			ps.Abandon()
			panic(r)
		}
	}()
	if cfg.DefineSchema != nil {
		if err := cfg.DefineSchema(db); err != nil {
			ps.Abandon()
			return nil, fmt.Errorf("gomdb: DefineSchema: %w", err)
		}
	}
	if img.Exists {
		if err := db.recoverFrom(img); err != nil {
			ps.Abandon()
			return nil, err
		}
	}
	// Baseline checkpoint: a fresh directory becomes a valid empty base, a
	// recovered one re-commits its post-recovery state (rebuilt GMRs and
	// all), so a crash right after open recovers to exactly this state.
	db.lockWrite()
	err = db.checkpointLocked()
	db.unlockWrite()
	if err != nil {
		ps.Abandon()
		return nil, err
	}
	return db, nil
}

// recoverFrom rebuilds the engine from a recovered checkpoint image.
func (db *Database) recoverFrom(img *storage.RecoveredImage) error {
	var meta durableMeta
	if err := json.Unmarshal(img.Meta, &meta); err != nil {
		return fmt.Errorf("gomdb: recovery: corrupt checkpoint metadata: %w", err)
	}
	if meta.Version != storage.FormatVersion {
		return fmt.Errorf("gomdb: recovery: checkpoint format version %d, this build reads version %d",
			meta.Version, storage.FormatVersion)
	}
	if sig := db.Schema.Fingerprint(); sig != meta.SchemaSig {
		return fmt.Errorf("gomdb: recovery: schema fingerprint %#x does not match the stored base (%#x); "+
			"DefineSchema must rebuild the schema the base was written with", sig, meta.SchemaSig)
	}
	// Restore the object heap's pages; every other page of the previous
	// incarnation (GMR extensions, indexes, RRR) is reclaimed as free space,
	// since those structures are rebuilt below.
	if meta.DirSeq != img.Seq {
		return fmt.Errorf("gomdb: recovery: metadata describes the directory at checkpoint %d, the store recovered checkpoint %d",
			meta.DirSeq, img.Seq)
	}
	if err := db.Disk.Restore(img.Pages, meta.Heap.Pages, storage.PageID(meta.NextPage)); err != nil {
		return fmt.Errorf("gomdb: recovery: %w", err)
	}
	heap := storage.RestoreHeapFile(db.Pool, meta.Heap, false)
	dirOps, err := db.Objects.RestoreDirectory(heap, meta.NextOID, img.DirSnapshot, img.DirDeltas)
	if err != nil {
		return fmt.Errorf("gomdb: recovery: %w", err)
	}
	db.GMRs.RestoreResultObjects(meta.ResultObjs)
	info := &RecoveryInfo{
		Recovered:         true,
		WALPagesReplayed:  img.WALPagesReplayed,
		TornPagesRepaired: img.TornPagesRepaired,
		WALTailDiscarded:  img.WALTailDiscarded,
		ObjectsRestored:   db.Objects.NumObjects(),
		DirOpsReplayed:    dirOps,
		PendingDiscarded:  meta.Pending,
	}
	for _, gm := range meta.GMRs {
		if gm.Restricted {
			return fmt.Errorf("gomdb: recovery: GMR %q is restricted and cannot be rebuilt", gm.Name)
		}
		if _, err := db.GMRs.Materialize(gm.Options()); err != nil {
			return fmt.Errorf("gomdb: recovery: rebuilding GMR %q: %w", gm.Name, err)
		}
		info.GMRsRebuilt++
		if !gm.Complete {
			info.CachesReset = append(info.CachesReset, gm.Name)
		}
	}
	db.Recovery = info
	return nil
}

// checkpointLocked makes the current engine state durable; a no-op on an
// in-memory database. Caller holds the exclusive lock. The pages captured are
// the union of pages physically written since the last checkpoint and pages
// dirty in the buffer pool (whose latest content only the pool has); both
// sets are read through the charge-free snapshot path, so the simulated Clock
// never observes a checkpoint. The directory travels as the ops journaled
// since the last checkpoint (or a fresh snapshot, when the object manager
// says the journal has outgrown the base); the journal, like the dirty sets,
// is cleared only once the store has committed.
func (db *Database) checkpointLocked() error {
	if db.store == nil {
		return nil
	}
	nextOID, heapDir := db.Objects.DirectoryHeader()
	meta := durableMeta{
		Version:    storage.FormatVersion,
		SchemaSig:  db.Schema.Fingerprint(),
		NextPage:   uint32(db.Disk.NextPage()),
		NextOID:    nextOID,
		Heap:       heapDir,
		DirSeq:     db.store.NextSeq(),
		ResultObjs: db.GMRs.ResultObjectIDs(),
		GMRs:       db.GMRs.ExportCatalog(),
		Pending:    db.GMRs.PendingLen(),
	}
	blob, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("gomdb: checkpoint: %w", err)
	}
	dirty := db.Disk.DurableDirty()
	for _, id := range db.Pool.DirtyPageIDs() {
		dirty = append(dirty, id)
	}
	dirty = dedupSorted(dirty)
	dirPayload, dirSnapshot := db.Objects.DirCheckpoint()
	err = db.store.CheckpointDir(dirty, db.Pool.ReadSnapshot, blob,
		storage.DirUpdate{Snapshot: dirSnapshot, Payload: dirPayload})
	if err != nil {
		return err
	}
	db.Disk.ClearDurableDirty()
	db.Pool.ClearDurableDirty()
	db.Objects.DirCheckpointDone(dirSnapshot)
	return nil
}

// dedupSorted sorts ids and removes duplicates in place.
func dedupSorted(ids []storage.PageID) []storage.PageID {
	if len(ids) < 2 {
		return ids
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := ids[:1]
	for _, id := range ids[1:] {
		if id != out[len(out)-1] {
			out = append(out, id)
		}
	}
	return out
}

// Checkpoint makes the current state durable immediately; a no-op on an
// in-memory database. It does not flush the deferred queue (use Flush for a
// combined flush point + checkpoint). To commit a clustered layout, call
// Recluster first.
func (db *Database) Checkpoint() error {
	db.lockWrite()
	defer db.unlockWrite()
	return db.checkpointLocked()
}

// Close flushes, checkpoints, and closes the durable store. On an in-memory
// database it is a no-op. The database must not be used after Close.
func (db *Database) Close() error {
	db.lockBarrier()
	defer db.unlockBarrier()
	if db.store == nil {
		return nil
	}
	err := db.GMRs.Flush()
	if cerr := db.checkpointLocked(); err == nil {
		err = cerr
	}
	if cerr := db.store.Close(); err == nil {
		err = cerr
	}
	db.store = nil
	return err
}

// Crash abandons the durable store without flushing, syncing, or
// checkpointing — the programmatic equivalent of the process dying at this
// instant. Durable state remains whatever the last committed checkpoint
// established; reopening the directory runs recovery. A no-op on an
// in-memory database. The simulation harness uses it for crash-restart ops.
func (db *Database) Crash() {
	db.lockBarrier()
	defer db.unlockBarrier()
	if db.store != nil {
		db.store.Abandon()
		db.store = nil
	}
}

// TestingFailNextCheckpoint arms the crash-mid-checkpoint injection of the
// underlying page store: the next checkpoint's WAL append is cut off after n
// bytes and surfaces ErrSimulatedCrash (or completes normally if the batch is
// shorter). A no-op on an in-memory database. Testing/simulation only.
func (db *Database) TestingFailNextCheckpoint(n int64) {
	db.lockWrite()
	defer db.unlockWrite()
	if db.store != nil {
		db.store.FailNextCheckpointAfter(n)
	}
}
